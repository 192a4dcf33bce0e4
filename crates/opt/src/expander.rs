//! The expander (§3.2.1): aggressive function inlining and loop unrolling.
//!
//! The paper implements these with NOELLE and tunes three knobs with an
//! auto-tuner (unrolling factor, max function size, max loop size),
//! targeting minimum dynamic instructions on the BASELINE architecture. We
//! implement both transformations from scratch; the tuner lives in the
//! bench harness (`bench/src/bin/tuner.rs`) and the defaults below are its
//! output on the MiBench-like suite.

use crate::ssa_repair::SsaRepair;
use sir::loops::{find_loops, NaturalLoop};
use sir::{BlockId, FuncId, Function, Inst, Module, Terminator, ValueId, Width};
use std::collections::{HashMap, HashSet};

/// Expander knobs (§3.2.1). `unroll_factor` bounds how many times any loop
/// body is replicated; `max_func_size`/`max_loop_size` bound the static
/// instruction count any function/loop may reach through expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpanderConfig {
    pub unroll_factor: u32,
    pub max_func_size: usize,
    pub max_loop_size: usize,
    /// Master switch (RQ4 runs with the expander disabled).
    pub enabled: bool,
}

impl ExpanderConfig {
    /// The configuration's identity as explicit fields, for structural
    /// cache-key hashing (stage fingerprints must not depend on `Debug`
    /// formatting). Any new knob must be added here, or distinct configs
    /// would silently alias in the build caches.
    pub fn key_fields(&self) -> (u32, u64, u64, bool) {
        let ExpanderConfig {
            unroll_factor,
            max_func_size,
            max_loop_size,
            enabled,
        } = *self;
        (
            unroll_factor,
            max_func_size as u64,
            max_loop_size as u64,
            enabled,
        )
    }
}

impl Default for ExpanderConfig {
    fn default() -> Self {
        // Auto-tuned configuration: `bench/src/bin/tuner.rs` grid-searched
        // (unroll × loop budget × function budget) for minimum BASELINE
        // dynamic instructions across the suite, matching the paper's
        // OpenTuner procedure.
        ExpanderConfig {
            unroll_factor: 8,
            max_func_size: 4000,
            max_loop_size: 400,
            enabled: true,
        }
    }
}

/// Runs inlining then unrolling over the whole module, followed by cleanup.
pub fn expand_module(m: &mut Module, cfg: &ExpanderConfig) {
    if !cfg.enabled {
        return;
    }
    inline_pass(m, cfg);
    for fid in m.func_ids().collect::<Vec<_>>() {
        unroll_function(m.func_mut(fid), cfg);
    }
    crate::simplify::run(m);
    crate::dce::run(m);
}

// --------------------------------------------------------------------------
// Inlining
// --------------------------------------------------------------------------

fn inline_pass(m: &mut Module, cfg: &ExpanderConfig) {
    // Iterate to a fixpoint bounded by the size budget.
    for _round in 0..8 {
        let mut any = false;
        for caller in m.func_ids().collect::<Vec<_>>() {
            while let Some((block, idx, callee)) = find_inline_site(m, caller, cfg) {
                let callee_clone = m.func(callee).clone();
                inline_at(m.func_mut(caller), block, idx, &callee_clone);
                any = true;
            }
        }
        if !any {
            break;
        }
    }
}

fn find_inline_site(
    m: &Module,
    caller: FuncId,
    cfg: &ExpanderConfig,
) -> Option<(BlockId, usize, FuncId)> {
    let f = m.func(caller);
    let caller_size = f.static_size();
    for b in f.block_ids() {
        for (i, &v) in f.block(b).insts.iter().enumerate() {
            if let Inst::Call { callee, .. } = f.inst(v) {
                if *callee == caller {
                    continue; // direct recursion
                }
                let callee_f = m.func(*callee);
                if calls_function(callee_f, caller) || calls_function(callee_f, *callee) {
                    continue; // mutual/self recursion in callee
                }
                let callee_size = callee_f.static_size();
                if caller_size + callee_size <= cfg.max_func_size {
                    return Some((b, i, *callee));
                }
            }
        }
    }
    None
}

fn calls_function(f: &Function, target: FuncId) -> bool {
    f.insts
        .iter()
        .any(|i| matches!(i, Inst::Call { callee, .. } if *callee == target))
}

/// Inlines `callee` at instruction index `idx` of `block` in `f`.
///
/// The call instruction must be at that position.
fn inline_at(f: &mut Function, block: BlockId, idx: usize, callee: &Function) {
    let call_v = f.block(block).insts[idx];
    let Inst::Call { args, ret, .. } = f.inst(call_v).clone() else {
        panic!("inline_at: not a call");
    };
    // Split off everything after the call into the continuation block.
    let cont = f.split_block(block, idx + 1);
    // Remove the call from its block (it will be replaced by the clone's
    // return value).
    f.block_mut(block).insts.pop();

    // Clone callee bodies.
    let mut vmap: HashMap<ValueId, ValueId> = HashMap::new();
    let mut bmap: HashMap<BlockId, BlockId> = HashMap::new();
    for cb in callee.block_ids() {
        bmap.insert(cb, f.add_block());
    }
    // Parameters map to the call arguments.
    for (i, a) in args.iter().enumerate() {
        vmap.insert(callee.param_value(i), *a);
    }
    // Pass 1: clone all instructions with *callee-space* operands, building
    // the value map. Pass 2 remaps operands exactly once (this also handles
    // forward references through φs).
    let mut new_values: Vec<ValueId> = Vec::new();
    for cb in callee.block_ids() {
        let nb = bmap[&cb];
        for &cv in &callee.block(cb).insts {
            let inst = callee.inst(cv);
            if matches!(inst, Inst::Param { .. }) {
                continue;
            }
            let nv = f.add_inst(inst.clone());
            f.block_mut(nb).insts.push(nv);
            vmap.insert(cv, nv);
            new_values.push(nv);
        }
    }
    for &nv in &new_values {
        let mut inst = f.inst(nv).clone();
        inst.map_operands(|v| *vmap.get(&v).unwrap_or(&v));
        if let Inst::Phi { incomings, .. } = &mut inst {
            for (pb, _) in incomings {
                *pb = bmap[pb];
            }
        }
        *f.inst_mut(nv) = inst;
    }
    let mut rets: Vec<(BlockId, Option<ValueId>)> = Vec::new();
    for cb in callee.block_ids() {
        let nb = bmap[&cb];
        let term = match callee.block(cb).term.clone() {
            Terminator::Br(t) => Terminator::Br(bmap[&t]),
            Terminator::CondBr {
                cond,
                if_true,
                if_false,
            } => Terminator::CondBr {
                cond: *vmap.get(&cond).unwrap_or(&cond),
                if_true: bmap[&if_true],
                if_false: bmap[&if_false],
            },
            Terminator::Ret(v) => {
                let v = v.map(|v| *vmap.get(&v).unwrap_or(&v));
                rets.push((nb, v));
                Terminator::Br(cont)
            }
            Terminator::Unreachable => Terminator::Unreachable,
        };
        f.block_mut(nb).term = term;
    }
    // Enter the clone.
    f.block_mut(block).term = Terminator::Br(bmap[&callee.entry]);
    // Merge return values at the continuation.
    if let Some(ret_width) = ret {
        let merged = match rets.len() {
            0 => {
                // Callee never returns; continuation is dead.
                let c = f.add_inst(Inst::Const {
                    width: ret_width,
                    value: 0,
                });
                f.block_mut(cont).insts.insert(0, c);
                c
            }
            1 => rets[0].1.expect("non-void return"),
            _ => {
                let phi = f.add_inst(Inst::Phi {
                    width: ret_width,
                    incomings: rets
                        .iter()
                        .map(|(b, v)| (*b, v.expect("non-void return")))
                        .collect(),
                });
                f.block_mut(cont).insts.insert(0, phi);
                phi
            }
        };
        // Replace all uses of the old call result.
        f.replace_all_uses(call_v, merged);
    }
    // The continuation may have had φs naming `block` as predecessor; they
    // were moved by split_block already. But the return-merge edges are new:
    // any pre-existing φ in `cont` with incoming from `block` must be split
    // across the return blocks. split_block rewired (block→cont) φs to point
    // at cont's new id… there were none since cont is fresh. Nothing to do.
}

// --------------------------------------------------------------------------
// Unrolling
// --------------------------------------------------------------------------

/// Unrolls every eligible natural loop of `f` by the configured factor.
///
/// Each round re-discovers the loops and unrolls the first eligible one in
/// [`find_loops`] order, so which loop goes next, the clone numbering and
/// hence every downstream fingerprint depend only on that order. A round
/// costs a few whole-function passes plus the work of copying the loop; no
/// step rescans the function per loop value or per back edge.
pub fn unroll_function(f: &mut Function, cfg: &ExpanderConfig) {
    if cfg.unroll_factor < 2 {
        return;
    }
    let factor = cfg.unroll_factor as usize;
    let mut processed: HashSet<BlockId> = HashSet::new();
    // Re-discover loops after each transformation (ids stay stable since
    // cloning only appends blocks).
    loop {
        let loops = find_loops(f);
        // The function's size is the same for every candidate of a round.
        let mut func_size = None;
        let Some(l) = loops.iter().find(|l| {
            if processed.contains(&l.header) || !single_backedge(f, l) {
                return false;
            }
            let size = loop_size(f, l);
            size * factor <= cfg.max_loop_size
                && *func_size.get_or_insert_with(|| f.static_size()) + size * (factor - 1)
                    <= cfg.max_func_size
        }) else {
            break;
        };
        let header = l.header;
        unroll_loop(f, l, cfg.unroll_factor);
        processed.insert(header);
    }
}

fn single_backedge(f: &Function, l: &NaturalLoop) -> bool {
    let mut n = 0;
    for &b in &l.blocks {
        for s in f.succs(b) {
            if s == l.header {
                n += 1;
            }
        }
    }
    n == 1
}

fn loop_size(f: &Function, l: &NaturalLoop) -> usize {
    l.blocks.iter().map(|b| f.block(*b).insts.len() + 1).sum()
}

fn unroll_loop(f: &mut Function, l: &NaturalLoop, factor: u32) {
    let header = l.header;
    let latch = l.latch;
    // Every block added from here on is a copy, so an id at or past `n0`
    // names a copy and `in_loop` only needs the original blocks.
    let n0 = f.blocks.len();
    let mut in_loop = vec![false; n0];
    for &b in &l.blocks {
        in_loop[b.index()] = true;
    }
    let is_orig_loop = |b: BlockId| b.index() < n0 && in_loop[b.index()];
    let inside = |b: BlockId| b.index() >= n0 || in_loop[b.index()];
    // Values defined in the loop with their blocks (for live-out repair and
    // remapping), in ascending block order: `l.blocks` is sorted, which
    // keeps clone numbering, allocation and measured energy deterministic.
    let loop_defs: Vec<(ValueId, BlockId)> = l
        .blocks
        .iter()
        .flat_map(|&b| f.block(b).insts.iter().map(move |&v| (v, b)))
        .collect();
    // Header φs and their latch-incoming values.
    let header_phis: Vec<(ValueId, ValueId)> = f
        .block(header)
        .insts
        .iter()
        .filter_map(|&v| match f.inst(v) {
            Inst::Phi { incomings, .. } => incomings
                .iter()
                .find(|(p, _)| *p == latch)
                .map(|(_, u)| (v, *u)),
            _ => None,
        })
        .collect();
    // RPO restricted to loop blocks for better def-before-use odds. Nothing
    // branches into a copy until the back edges are rewired below, so the
    // order is the same for every copy.
    let block_order: Vec<BlockId> = f.rpo().into_iter().filter(|&b| is_orig_loop(b)).collect();

    // map[c] : orig value/block → copy c's value/block (map[0] = identity).
    let mut vmaps: Vec<HashMap<ValueId, ValueId>> = vec![HashMap::new()];
    let mut bmaps: Vec<HashMap<BlockId, BlockId>> = vec![HashMap::new()];
    let copies = factor as usize - 1;
    for c in 1..=copies {
        let mut vmap = HashMap::new();
        let mut bmap = HashMap::new();
        for &b in &l.blocks {
            bmap.insert(b, f.add_block());
        }
        // Header φs in copy c resolve to the latch value from copy c-1.
        for &(phi, u) in &header_phis {
            vmap.insert(phi, *vmaps[c - 1].get(&u).unwrap_or(&u));
        }
        // Clone instructions block by block (two-pass for forward refs).
        for &b in &block_order {
            let nb = bmap[&b];
            for &v in &f.block(b).insts.clone() {
                if b == header && header_phis.iter().any(|(p, _)| *p == v) {
                    continue; // φ replaced by mapping
                }
                let nv = f.add_inst(f.inst(v).clone());
                f.block_mut(nb).insts.push(nv);
                vmap.insert(v, nv);
            }
        }
        // Second pass: remap operands of all cloned instructions.
        for &b in &block_order {
            let nb = bmap[&b];
            for &nv in &f.block(nb).insts.clone() {
                let mut inst = f.inst(nv).clone();
                inst.map_operands(|v| *vmap.get(&v).unwrap_or(&v));
                if let Inst::Phi { incomings, .. } = &mut inst {
                    for (pb, _) in incomings {
                        if let Some(nb2) = bmap.get(pb) {
                            *pb = *nb2;
                        }
                    }
                }
                *f.inst_mut(nv) = inst;
            }
        }
        // Terminators.
        for &b in &block_order {
            let nb = bmap[&b];
            let mut term = f.block(b).term.clone();
            term.map_operands(|v| *vmap.get(&v).unwrap_or(&v));
            term.map_successors(|s| {
                if s == header && b == latch {
                    // back edge: handled below
                    s
                } else if let Some(ns) = bmap.get(&s) {
                    *ns
                } else {
                    s // exit edge
                }
            });
            f.block_mut(nb).term = term;
        }
        vmaps.push(vmap);
        bmaps.push(bmap);
    }

    // Rewire back edges: orig latch → copy1 header; copy c latch → copy c+1
    // header; last copy latch → orig header.
    let copy_of = |c: usize, b: BlockId| if c == 0 { b } else { bmaps[c][&b] };
    for c in 0..=copies {
        let next_header = copy_of((c + 1) % (copies + 1), header);
        let lb = copy_of(c, latch);
        let mut term = f.block(lb).term.clone();
        term.map_successors(|s| if s == header { next_header } else { s });
        f.block_mut(lb).term = term;
    }
    // Header φ latch edges now come from the LAST copy's latch.
    let last = copies;
    let last_latch = copy_of(last, latch);
    for &(phi, u) in &header_phis {
        let mapped_u = *vmaps[last].get(&u).unwrap_or(&u);
        if let Inst::Phi { incomings, .. } = f.inst_mut(phi) {
            for (pb, pv) in incomings {
                if *pb == latch {
                    *pb = last_latch;
                    *pv = mapped_u;
                }
            }
        }
    }
    // Exit-target φs gain incoming edges from each copy's exiting blocks.
    for et in l.exit_targets(f) {
        let phis: Vec<ValueId> = f
            .block(et)
            .insts
            .iter()
            .copied()
            .filter(|v| f.inst(*v).is_phi())
            .collect();
        for p in phis {
            if let Inst::Phi { incomings, .. } = f.inst(p).clone() {
                let mut inc = incomings.clone();
                for (pb, pv) in &incomings {
                    if is_orig_loop(*pb) {
                        for c in 1..=copies {
                            let npb = bmaps[c][pb];
                            let npv = *vmaps[c].get(pv).unwrap_or(pv);
                            inc.push((npb, npv));
                        }
                    }
                }
                if let Inst::Phi { incomings: i2, .. } = f.inst_mut(p) {
                    *i2 = inc;
                }
            }
        }
    }
    // SSA repair for loop-defined values used outside the loop (and outside
    // the copies): each copy provides an alternative definition.
    if copies > 0 {
        let live_out = mark_live_out(f, &loop_defs, inside);
        if !live_out.used.is_empty() {
            let mut repair = SsaRepair::new(f);
            let mut vars: HashMap<ValueId, u32> = HashMap::new();
            for &(d, db, w) in &live_out.used {
                let var = repair.fresh_var(w);
                vars.insert(d, var);
                repair.define(var, db, d);
                for c in 1..=copies {
                    if let Some(nd) = vmaps[c].get(&d) {
                        repair.define(var, bmaps[c][&db], *nd);
                    }
                }
            }
            rewrite_outside_uses(f, &vars, &live_out.blocks, inside, &mut repair);
        }
    }
    f.remove_unreachable_blocks();
}

/// The loop's live-out values and where they are used.
struct LiveOut {
    /// Loop-defined values used outside the loop and its copies, with
    /// their defining block and width, in `loop_defs` order.
    used: Vec<(ValueId, BlockId, Width)>,
    /// The outside blocks holding those uses, in ascending order.
    blocks: Vec<BlockId>,
}

/// One scan over the blocks outside the loop and its copies (`inside` is
/// false) finds every use of a loop-defined value there. A φ use counts
/// at its incoming predecessor, so an exit φ's incoming from inside the
/// loop is not a use. The scan runs once the copies are wired in and
/// before the repair edits anything, so it sees what a check per value
/// would.
fn mark_live_out(
    f: &Function,
    loop_defs: &[(ValueId, BlockId)],
    inside: impl Fn(BlockId) -> bool,
) -> LiveOut {
    const DEF: u8 = 1;
    const USED: u8 = 2;
    let mut state = vec![0u8; f.insts.len()];
    for &(d, _) in loop_defs {
        state[d.index()] = DEF;
    }
    let mut blocks = Vec::new();
    for b in f.block_ids() {
        if inside(b) {
            continue;
        }
        let mut uses = false;
        let mut mark = |v: ValueId| {
            if state[v.index()] != 0 {
                state[v.index()] = USED;
                uses = true;
            }
        };
        for &v in &f.block(b).insts {
            match f.inst(v) {
                Inst::Phi { incomings, .. } => incomings
                    .iter()
                    .filter(|(pb, _)| !inside(*pb))
                    .for_each(|(_, pv)| mark(*pv)),
                inst => inst.for_each_operand(&mut mark),
            }
        }
        match f.block(b).term {
            Terminator::CondBr { cond: v, .. } | Terminator::Ret(Some(v)) => mark(v),
            _ => {}
        }
        if uses {
            blocks.push(b);
        }
    }
    let used = loop_defs
        .iter()
        .filter(|(d, _)| state[d.index()] == USED)
        .filter_map(|&(d, db)| Some((d, db, f.value_width(d)?)))
        .collect();
    LiveOut { used, blocks }
}

/// Rewrites the uses of the repaired values in `blocks` (the outside blocks
/// [`mark_live_out`] found them in) to the reaching definition.
fn rewrite_outside_uses(
    f: &mut Function,
    vars: &HashMap<ValueId, u32>,
    blocks: &[BlockId],
    inside: impl Fn(BlockId) -> bool,
    repair: &mut SsaRepair,
) {
    for &b in blocks {
        let insts = f.block(b).insts.clone();
        for v in insts {
            let inst = f.inst(v).clone();
            if let Inst::Phi {
                mut incomings,
                width,
            } = inst
            {
                let mut changed = false;
                for (pb, pv) in &mut incomings {
                    if let Some(&var) = vars.get(pv) {
                        if !inside(*pb) {
                            *pv = repair.read_at_exit(f, var, *pb);
                            changed = true;
                        }
                    }
                }
                if changed {
                    *f.inst_mut(v) = Inst::Phi { width, incomings };
                }
            } else {
                let needs = inst.operands().iter().any(|o| vars.contains_key(o));
                if needs {
                    let mut reads: HashMap<ValueId, ValueId> = HashMap::new();
                    for o in inst.operands() {
                        if let Some(&var) = vars.get(&o) {
                            let r = repair.read_at_entry(f, var, b);
                            reads.insert(o, r);
                        }
                    }
                    let mut inst2 = inst.clone();
                    inst2.map_operands(|o| *reads.get(&o).unwrap_or(&o));
                    *f.inst_mut(v) = inst2;
                }
            }
        }
        let term_ops = f.block(b).term.operands();
        if term_ops.iter().any(|o| vars.contains_key(o)) {
            let mut reads: HashMap<ValueId, ValueId> = HashMap::new();
            for o in term_ops {
                if let Some(&var) = vars.get(&o) {
                    let r = repair.read_at_entry(f, var, b);
                    reads.insert(o, r);
                }
            }
            let mut term = f.block(b).term.clone();
            term.map_operands(|o| *reads.get(&o).unwrap_or(&o));
            f.block_mut(b).term = term;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp::Interpreter;

    fn outputs_of(m: &sir::Module) -> Vec<u32> {
        let mut i = Interpreter::new(m);
        i.run("main", &[]).unwrap().outputs
    }

    fn expanded(src: &str, cfg: &ExpanderConfig) -> (sir::Module, sir::Module) {
        let m0 = lang::compile("t", src).unwrap();
        let mut m1 = m0.clone();
        expand_module(&mut m1, cfg);
        sir::verify::verify_module(&m1).expect("expanded module verifies");
        (m0, m1)
    }

    #[test]
    fn inlining_preserves_behaviour() {
        let src = "
            u32 sq(u32 x) { return x * x; }
            u32 tw(u32 x) { return sq(x) + sq(x + 1); }
            void main() { for (u32 i = 0; i < 5; i++) { out(tw(i)); } }
        ";
        let (m0, m1) = expanded(src, &ExpanderConfig::default());
        assert_eq!(outputs_of(&m0), outputs_of(&m1));
        // main should no longer contain calls.
        let f = m1.func(m1.func_by_name("main").unwrap());
        let calls = f
            .block_ids()
            .flat_map(|b| f.block(b).insts.clone())
            .filter(|v| matches!(f.inst(*v), Inst::Call { .. }))
            .count();
        assert_eq!(calls, 0, "all calls should be inlined");
    }

    #[test]
    fn recursive_functions_not_inlined() {
        let src = "
            u32 fib(u32 n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
            void main() { out(fib(8)); }
        ";
        let (m0, m1) = expanded(src, &ExpanderConfig::default());
        assert_eq!(outputs_of(&m0), outputs_of(&m1));
    }

    #[test]
    fn unrolling_preserves_behaviour_various_trip_counts() {
        for n in [0u32, 1, 3, 4, 7, 8, 13] {
            let src = format!(
                "void main() {{
                    u32 s = 0;
                    for (u32 i = 0; i < {n}; i++) {{ s += i * i; }}
                    out(s);
                }}"
            );
            let (m0, m1) = expanded(&src, &ExpanderConfig::default());
            assert_eq!(outputs_of(&m0), outputs_of(&m1), "trip count {n}");
        }
    }

    #[test]
    fn unrolling_with_memory_side_effects() {
        let src = "
            global u32 acc[16];
            void main() {
                for (u32 i = 0; i < 13; i++) { acc[i & 7] += i; }
                for (u32 i = 0; i < 8; i++) { out(acc[i]); }
            }
        ";
        let (m0, m1) = expanded(src, &ExpanderConfig::default());
        assert_eq!(outputs_of(&m0), outputs_of(&m1));
    }

    #[test]
    fn unrolling_loop_with_break() {
        let src = "
            void main() {
                u32 s = 0;
                for (u32 i = 0; i < 100; i++) {
                    if (i * i > 50) { break; }
                    s += i;
                }
                out(s);
            }
        ";
        let (m0, m1) = expanded(src, &ExpanderConfig::default());
        assert_eq!(outputs_of(&m0), outputs_of(&m1));
    }

    #[test]
    fn live_out_values_repaired() {
        // s is loop-defined and used after the loop.
        let src = "
            void main() {
                u32 s = 0;
                u32 i = 0;
                do { s = s + i; i++; } while (i < 10);
                out(s + i);
            }
        ";
        let (m0, m1) = expanded(src, &ExpanderConfig::default());
        assert_eq!(outputs_of(&m0), outputs_of(&m1));
    }

    /// A single-block loop `body` defining `x` and `y`: `x` reaches the
    /// exit only through the exit φ's incoming from `body` (inside the
    /// loop), `y` through a plain add in the exit block.
    #[test]
    fn live_out_repair_covers_non_phi_uses_only() {
        use sir::builder::FunctionBuilder;
        use sir::{BinOp, Cc};
        let w = Width::W32;
        let mut fb = FunctionBuilder::new("lo", vec![w], Some(w));
        let n = fb.param(0);
        let zero = fb.iconst(w, 0);
        let entry = fb.current_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(body);
        fb.switch_to(body);
        let i = fb.phi(w, vec![]);
        let one = fb.iconst(w, 1);
        let i1 = fb.bin(BinOp::Add, w, i, one);
        let x = fb.bin(BinOp::Mul, w, i1, i1);
        let y = fb.bin(BinOp::Add, w, i1, n);
        let c = fb.icmp(Cc::Ult, w, i1, n);
        fb.cond_br(c, body, exit);
        fb.set_phi_incomings(i, vec![(entry, zero), (body, i1)]);
        fb.switch_to(exit);
        let p = fb.phi(w, vec![(body, x)]);
        let s = fb.bin(BinOp::Add, w, y, p);
        fb.ret(Some(s));
        let mut f = fb.finish();

        let l = &find_loops(&f)[0];
        let loop_defs: Vec<(ValueId, BlockId)> =
            f.block(body).insts.iter().map(|&v| (v, body)).collect();
        let live = mark_live_out(&f, &loop_defs, |b| l.contains(b));
        assert_eq!(live.used, vec![(y, body, w)]);
        assert_eq!(live.blocks, vec![exit]);

        let cfg = ExpanderConfig {
            unroll_factor: 2,
            ..ExpanderConfig::default()
        };
        unroll_function(&mut f, &cfg);
        sir::verify::verify_function(&f).expect("unrolled function verifies");
        let copy = BlockId(3);
        // The exit φ only gains the copy's incoming; `y`'s use now reads a
        // repair φ merging `y` and its copy.
        let phis: Vec<ValueId> = f.block(exit).insts[..f.phi_count(exit)].to_vec();
        assert_eq!(phis.len(), 2);
        let Inst::Phi { incomings, .. } = f.inst(p) else {
            panic!("exit φ expected");
        };
        assert_eq!(incomings.len(), 2);
        assert_eq!(incomings[0], (body, x));
        assert_eq!(incomings[1].0, copy);
        let repaired = *phis.iter().find(|&&v| v != p).unwrap();
        let Inst::Phi { incomings, .. } = f.inst(repaired) else {
            panic!("repair φ expected");
        };
        assert!(incomings.contains(&(body, y)));
        assert_eq!(f.inst(s).operands(), vec![repaired, p]);
    }

    #[test]
    fn nested_loops_unroll() {
        let src = "
            void main() {
                u32 s = 0;
                for (u32 i = 0; i < 6; i++) {
                    for (u32 j = 0; j < 5; j++) { s += i * j; }
                }
                out(s);
            }
        ";
        let (m0, m1) = expanded(src, &ExpanderConfig::default());
        assert_eq!(outputs_of(&m0), outputs_of(&m1));
    }

    #[test]
    fn disabled_expander_is_identity() {
        let src = "u32 g(u32 x) { return x + 1; } void main() { out(g(1)); }";
        let m0 = lang::compile("t", src).unwrap();
        let mut m1 = m0.clone();
        expand_module(
            &mut m1,
            &ExpanderConfig {
                enabled: false,
                ..Default::default()
            },
        );
        assert_eq!(m0.static_size(), m1.static_size());
    }

    #[test]
    fn unroll_reduces_dynamic_phi_overhead() {
        let src = "void main() {
            u32 s = 0;
            for (u32 i = 0; i < 64; i++) { s += i; }
            out(s);
        }";
        let (m0, m1) = expanded(src, &ExpanderConfig::default());
        let mut i0 = Interpreter::new(&m0);
        let mut i1 = Interpreter::new(&m1);
        let r0 = i0.run("main", &[]).unwrap();
        let r1 = i1.run("main", &[]).unwrap();
        assert_eq!(r0.outputs, r1.outputs);
        assert!(
            r1.stats.branches < r0.stats.branches,
            "unrolling should cut branch count: {} vs {}",
            r1.stats.branches,
            r0.stats.branches
        );
    }
}
