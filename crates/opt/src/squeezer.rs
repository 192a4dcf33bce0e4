//! The squeezer (§3.2.3): speculative bitwidth reduction with
//! misspeculation handlers.
//!
//! For every function with profitable candidates the squeezer
//!
//! 1. **prepares the CFG** (equations 4–6): allocas are hoisted into a
//!    `setup` entry block shared by both CFGs; blocks are split so that each
//!    contains only loads *or* only stores (idempotent re-execution), each
//!    non-idempotent instruction (call / volatile access / output) sits
//!    alone in its own block, and φ-nodes are separated from non-φs;
//! 2. **clones** the CFG into `CFG_spec` (entered from `setup`) and
//!    `CFG_orig` (reachable only through misspeculation handlers);
//! 3. **narrows** profiled-narrow variables in `CFG_spec` into 8-bit slices:
//!    eligible operations (Table 1) are rewritten to speculative 8-bit
//!    forms, wide operands are brought into slices with *speculative
//!    truncates*, and slice values feeding wide consumers are zero-extended;
//! 4. **inserts handlers**: each spec block containing an instruction that
//!    can misspeculate becomes a single-block speculative region whose
//!    handler extends the live state to the original bitwidth and branches
//!    to the original block, which re-executes at full width. SSA is
//!    repaired with φ-nodes at the new joins (the paper's equation 8,
//!    generalized to arbitrary join shapes).
//!
//! Divergence from the paper, documented in DESIGN.md: we skip the
//! `BB_clone` copy blocks of equation 9. They exist to expose value
//! lifetimes to LLVM's register allocator; our allocator consumes SSA
//! liveness over misspeculation edges directly, which subsumes them.
//!
//! The BITSPEC-specific optimizations of §3.2.4 are included: *compare
//! elimination* (a compare of a slice against a constant that cannot fit in
//! 8 bits folds to its speculation-implied truth value) and *bitmask
//! elision* (`x & 0xFF` becomes a plain slice read, with no check needed).

use interp::{Heuristic, Profile};
use sir::bitset::BitRows;
use sir::liveness::Liveness;
use sir::{BinOp, BlockId, Cc, FuncId, Function, Inst, Module, Terminator, ValueId, Width};
use std::collections::{HashMap, HashSet};

/// Squeezer configuration (a point in the paper's evaluation matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SqueezeConfig {
    /// Profiler aggressiveness (RQ5).
    pub heuristic: Heuristic,
    /// §3.2.4 compare elimination (ablated in RQ3).
    pub compare_elim: bool,
    /// §3.2.4 bitmask elision (ablated in RQ3).
    pub bitmask_elision: bool,
    /// When `false`, runs the *no-speculation* register-packing mode of
    /// RQ2: only statically provable narrowings are performed; no regions,
    /// no handlers, no ISA support needed.
    pub speculation: bool,
}

impl Default for SqueezeConfig {
    fn default() -> Self {
        SqueezeConfig {
            heuristic: Heuristic::Max,
            compare_elim: true,
            bitmask_elision: true,
            speculation: true,
        }
    }
}

/// What the squeezer did (feeds the evaluation harnesses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SqueezeReport {
    /// Wide values replaced by 8-bit slice computations.
    pub narrowed: usize,
    /// Speculative regions (== handlers) created.
    pub regions: usize,
    /// Speculative truncates inserted to feed wide values into slices.
    pub spec_truncs: usize,
    /// Compares removed by compare elimination.
    pub compares_eliminated: usize,
    /// `x & 0xFF` patterns elided to slice reads.
    pub bitmasks_elided: usize,
}

/// Wall-clock time (ns) per squeezer sub-phase, aggregated across
/// functions. The pass manager surfaces these as dotted sub-entries
/// (`squeeze.prepare`, …) under the `squeeze` pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SqueezePhases {
    /// CFG preparation: alloca hoisting, setup split, block segregation
    /// (equations 4–6).
    pub prepare: u64,
    /// Liveness, candidate selection and the profitability estimate.
    pub analyze: u64,
    /// 2-CFG cloning with speculative narrowing of `CFG_spec`.
    pub clone: u64,
    /// Speculative-region creation and handler insertion.
    pub handlers: u64,
    /// SSA reconstruction of `CFG_orig` at the new handler joins (eq 8).
    pub ssa_repair: u64,
    /// Static (no-speculation) narrowing of the RQ2 packing mode.
    pub pack: u64,
    /// Unreachable-block removal + the post-squeeze DCE sweep.
    pub cleanup: u64,
}

/// Runs the squeezer over every function of `m`.
///
/// `profile` must have been collected on `m` *after* expansion (the pipeline
/// order of Figure 4); value ids are matched positionally.
pub fn squeeze_module(m: &mut Module, profile: &Profile, cfg: &SqueezeConfig) -> SqueezeReport {
    squeeze_module_phased(m, profile, cfg).0
}

/// [`squeeze_module`] with per-sub-phase wall-clock accounting.
pub fn squeeze_module_phased(
    m: &mut Module,
    profile: &Profile,
    cfg: &SqueezeConfig,
) -> (SqueezeReport, SqueezePhases) {
    let mut report = SqueezeReport::default();
    let mut phases = SqueezePhases::default();
    for fid in m.func_ids().collect::<Vec<_>>() {
        if cfg.speculation {
            squeeze_function(m.func_mut(fid), fid, profile, cfg, &mut report, &mut phases);
        } else {
            let t = std::time::Instant::now();
            pack_function_static(m.func_mut(fid), &mut report);
            phases.pack += t.elapsed().as_nanos() as u64;
        }
    }
    let t = std::time::Instant::now();
    crate::dce::run(m);
    phases.cleanup += t.elapsed().as_nanos() as u64;
    (report, phases)
}

// ---------------------------------------------------------------------------
// CFG preparation (equations 4–6)
// ---------------------------------------------------------------------------

fn hoist_allocas(f: &mut Function) {
    let mut hoisted = Vec::new();
    for b in f.block_ids().collect::<Vec<_>>() {
        if b == f.entry {
            continue;
        }
        let (allocas, rest): (Vec<ValueId>, Vec<ValueId>) = f
            .block(b)
            .insts
            .clone()
            .into_iter()
            .partition(|v| matches!(f.inst(*v), Inst::Alloca { .. }));
        if !allocas.is_empty() {
            f.block_mut(b).insts = rest;
            hoisted.extend(allocas);
        }
    }
    let entry = f.entry;
    let mut pos = f.params.len();
    while pos < f.block(entry).insts.len()
        && matches!(f.inst(f.block(entry).insts[pos]), Inst::Alloca { .. })
    {
        pos += 1;
    }
    for (i, a) in hoisted.into_iter().enumerate() {
        f.block_mut(entry).insts.insert(pos + i, a);
    }
}

/// Splits `f.entry` into a `setup` block (params + allocas only) and the
/// first real block; returns the first real block.
fn split_setup(f: &mut Function) -> BlockId {
    let entry = f.entry;
    let mut cut = f.params.len();
    while cut < f.block(entry).insts.len()
        && matches!(f.inst(f.block(entry).insts[cut]), Inst::Alloca { .. })
    {
        cut += 1;
    }
    f.split_block(entry, cut)
}

/// Equations 4–6: φ separation, non-idempotent isolation, load/store
/// segregation.
fn prepare_blocks(f: &mut Function, setup: BlockId) {
    let mut work: Vec<BlockId> = f.block_ids().filter(|b| *b != setup).collect();
    while let Some(b) = work.pop() {
        let insts = f.block(b).insts.clone();
        // (6) φs separated from non-φs.
        let nphis = f.phi_count(b);
        if nphis > 0 && nphis < insts.len() {
            let nb = f.split_block(b, nphis);
            work.push(nb);
            continue;
        }
        // (5) non-idempotent instructions isolated.
        if let Some(pos) = insts.iter().position(|v| !f.inst(*v).is_idempotent()) {
            if pos > 0 {
                let nb = f.split_block(b, pos);
                work.push(nb);
                // The idempotent prefix can still mix loads and stores —
                // re-enqueue it so rule (4) runs on it. (`pos` was the
                // first non-idempotent instruction, so the prefix passes
                // rule (5) and reaches rule (4) on the next visit.)
                work.push(b);
                continue;
            }
            if insts.len() > 1 {
                let nb = f.split_block(b, 1);
                work.push(nb);
            }
            continue; // the isolated block itself needs no further splits
        }
        // (4) loads-only or stores-only.
        let mut seen_load = false;
        let mut seen_store = false;
        for (i, &v) in insts.iter().enumerate() {
            let (is_load, is_store) = match f.inst(v) {
                Inst::Load { .. } => (true, false),
                Inst::Store { .. } => (false, true),
                _ => (false, false),
            };
            if (is_load && seen_store) || (is_store && seen_load) {
                let nb = f.split_block(b, i);
                work.push(nb);
                break;
            }
            seen_load |= is_load;
            seen_store |= is_store;
        }
    }
}

// ---------------------------------------------------------------------------
// Candidate selection (Squeezable?, equation 3)
// ---------------------------------------------------------------------------

fn narrowable_bin_op(op: BinOp) -> bool {
    // Ashr is excluded: an 8-bit slice reinterprets bit 7 as a sign bit,
    // which no misspeculation check catches. Mul/div/rem have no slice form
    // (Table 1).
    matches!(
        op,
        BinOp::Add | BinOp::Sub | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Lshr
    )
}

fn misspec_capable(op: BinOp) -> bool {
    // Table 1: addition overflows, subtraction underflows, shl carries out.
    // Logic and right shifts never misspeculate.
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Shl)
}

fn const_u8(f: &Function, v: ValueId) -> Option<u64> {
    match f.inst(v) {
        Inst::Const { value, .. } if *value <= 0xFF => Some(*value),
        _ => None,
    }
}

/// Whether the profile, under `cfg`'s heuristic, fits `v` in a slice.
fn profiled_narrow(profile: &Profile, fid: FuncId, cfg: &SqueezeConfig, v: ValueId) -> bool {
    matches!(
        profile.target(fid, v, cfg.heuristic),
        Some(Width::W1) | Some(Width::W8)
    )
}

fn is_wide(w: Width) -> bool {
    matches!(w, Width::W16 | Width::W32 | Width::W64)
}

struct Candidates {
    /// Values whose defining op is replaced by a slice op.
    narrow: HashSet<ValueId>,
    /// Subset handled by bitmask elision (`x & 0xFF`).
    elided: HashSet<ValueId>,
}

fn select_candidates(
    f: &Function,
    fid: FuncId,
    profile: &Profile,
    cfg: &SqueezeConfig,
    idempotent: &[bool],
    live: &Liveness,
    chain: &[bool],
) -> Candidates {
    let fits8 = |v: ValueId| profiled_narrow(profile, fid, cfg, v);
    let operand_ok = |u: ValueId| -> bool {
        match f.value_width(u) {
            Some(Width::W8) => true,
            Some(w) if is_wide(w) => const_u8(f, u).is_some() || fits8(u),
            _ => false,
        }
    };
    let mut narrow: HashSet<ValueId> = HashSet::new();
    let mut elided: HashSet<ValueId> = HashSet::new();
    for b in f.block_ids() {
        if !idempotent[b.index()] {
            continue;
        }
        for &v in &f.block(b).insts {
            let inst = f.inst(v);
            let Some(w) = inst.result_width() else {
                continue;
            };
            if !is_wide(w) {
                continue;
            }
            match inst {
                Inst::Bin {
                    op,
                    lhs,
                    rhs,
                    speculative: false,
                    ..
                } => {
                    if cfg.bitmask_elision
                        && *op == BinOp::And
                        && matches!(f.inst(*rhs), Inst::Const { value: 0xFF, .. })
                    {
                        narrow.insert(v);
                        elided.insert(v);
                        continue;
                    }
                    if narrowable_bin_op(*op) && fits8(v) && operand_ok(*lhs) && operand_ok(*rhs) {
                        narrow.insert(v);
                    }
                }
                Inst::Load {
                    width: Width::W32,
                    volatile: false,
                    speculative: false,
                    ..
                } if fits8(v) => {
                    narrow.insert(v);
                }
                Inst::Zext { arg, .. }
                    if (f.value_width(*arg) == Some(Width::W8) || (fits8(v) && fits8(*arg))) =>
                {
                    narrow.insert(v);
                }
                Inst::Phi { .. } if fits8(v) => {
                    narrow.insert(v); // refined by the fixpoint below
                }
                _ => {}
            }
        }
    }
    drop_unfed_phis(f, &mut narrow, &mut elided);
    // Register-pressure estimate: if many profiled-narrow values are ever
    // simultaneously live, packed slice storage frees registers (Figure 2)
    // and narrow φs pay for themselves even when every reader re-extends.
    let pressure_high = max_narrow_live(f, live, &narrow, |_| 1) >= 8;
    prune_unprofitable(
        f,
        fid,
        profile,
        cfg,
        chain,
        &mut narrow,
        &mut elided,
        pressure_high,
    );
    Candidates { narrow, elided }
}

/// φ fixpoint: a narrow φ needs every incoming to be narrow, already
/// 8-bit, or a small constant (no speculative truncates in predecessors).
fn drop_unfed_phis(f: &Function, narrow: &mut HashSet<ValueId>, elided: &mut HashSet<ValueId>) {
    loop {
        let mut removed = false;
        let phis: Vec<ValueId> = narrow
            .iter()
            .copied()
            .filter(|v| f.inst(*v).is_phi())
            .collect();
        for v in phis {
            if let Inst::Phi { incomings, .. } = f.inst(v) {
                let ok = incomings.iter().all(|(_, u)| {
                    narrow.contains(u)
                        || const_u8(f, *u).is_some()
                        || f.value_width(*u) == Some(Width::W8)
                });
                if !ok {
                    narrow.remove(&v);
                    elided.remove(&v);
                    removed = true;
                }
            }
        }
        if !removed {
            break;
        }
    }
}

/// The largest total `weight` of candidates live into any one block: a
/// walk over each block's `live_in ∧ narrow` row.
fn max_narrow_live(
    f: &Function,
    live: &Liveness,
    narrow: &HashSet<ValueId>,
    weight: impl Fn(ValueId) -> u64,
) -> u64 {
    let mut bits = BitRows::new(1, f.insts.len());
    narrow.iter().for_each(|&v| bits.insert(0, v));
    let live_narrow = |b| live.live_in_of(b).and(bits.row(0)).map(&weight).sum();
    f.block_ids().map(live_narrow).max().unwrap_or(0)
}

/// Whether `user` consumes its narrow operand as a (possibly scaled) load
/// index: the back-end lowers `base + scaled(zext(slice))` to the Table 1
/// slice-indexed addressing mode, so the narrow value feeds the AGU
/// directly — no zero-extension instruction is ever paid.
fn index_chain_use(f: &Function, users: &HashMap<ValueId, Vec<ValueId>>, user: ValueId) -> bool {
    let users_of = |x: ValueId| users.get(&x).map_or(&[][..], Vec::as_slice);
    let feeds_only_load_addrs = |x: ValueId| -> bool {
        let us = users_of(x);
        !us.is_empty()
            && us
                .iter()
                .all(|&u| matches!(f.inst(u), Inst::Load { addr, .. } if *addr == x))
    };
    let Inst::Bin {
        op,
        width: Width::W32,
        rhs,
        speculative: false,
        ..
    } = f.inst(user)
    else {
        return false;
    };
    // A scaled index (`* 1|2|4|8` or `<< 0..=3`) feeding only address adds.
    let scaled = match (op, f.inst(*rhs)) {
        (BinOp::Add, _) => return feeds_only_load_addrs(user),
        (BinOp::Mul, Inst::Const { value, .. }) => matches!(value, 1 | 2 | 4 | 8),
        (BinOp::Shl, Inst::Const { value, .. }) => *value <= 3,
        _ => false,
    };
    let us = users_of(user);
    scaled
        && !us.is_empty()
        && us.iter().all(|&a| {
            matches!(
                f.inst(a),
                Inst::Bin {
                    op: BinOp::Add,
                    width: Width::W32,
                    ..
                }
            ) && feeds_only_load_addrs(a)
        })
}

/// [`index_chain_use`] of every instruction, by value index. It depends
/// on the function alone, so the profitability passes decide it once.
fn index_chain_uses(f: &Function) -> Vec<bool> {
    let mut users: HashMap<ValueId, Vec<ValueId>> = HashMap::new();
    for b in f.block_ids() {
        for &u in &f.block(b).insts {
            f.inst(u)
                .for_each_operand(|op| users.entry(op).or_default().push(u));
        }
    }
    let mut chain = vec![false; f.insts.len()];
    for b in f.block_ids() {
        for &u in &f.block(b).insts {
            chain[u.index()] = index_chain_use(f, &users, u);
        }
    }
    chain
}

/// Drops candidates whose narrowing costs more than it saves: each use in
/// a *wide* context pays a zero-extension, each use in a *narrow* context
/// (another candidate, a slice-able compare, a compare that
/// compare-elimination will fold) comes for free. Under high register
/// pressure, φs are exempt — a packed slice φ frees ¾ of a register for
/// its whole live range (the Figure 2 effect) regardless of how its
/// readers consume it.
#[allow(clippy::too_many_arguments)]
fn prune_unprofitable(
    f: &Function,
    fid: FuncId,
    profile: &Profile,
    cfg: &SqueezeConfig,
    chain: &[bool],
    narrow: &mut HashSet<ValueId>,
    elided: &mut HashSet<ValueId>,
    pressure_high: bool,
) {
    let fits8 = |v: ValueId| profiled_narrow(profile, fid, cfg, v);
    let mut narrow_uses = vec![0i64; f.insts.len()];
    let mut wide_uses = vec![0i64; f.insts.len()];
    loop {
        // Count narrow- vs wide-context uses per candidate.
        narrow_uses.fill(0);
        wide_uses.fill(0);
        for b in f.block_ids() {
            for &u in &f.block(b).insts {
                let inst = f.inst(u);
                let narrow_context = if narrow.contains(&u) {
                    true
                } else if let Inst::Icmp {
                    cc,
                    width,
                    lhs,
                    rhs,
                    ..
                } = inst
                {
                    if is_wide(*width) && !cc.is_signed() {
                        let side = |x: ValueId| {
                            narrow.contains(&x)
                                || const_u8(f, x).is_some()
                                || f.value_width(x) == Some(Width::W8)
                                || fits8(x)
                        };
                        let big = |x: ValueId| matches!(f.inst(x), Inst::Const { value, .. } if *value > 0xFF);
                        (side(*lhs) && side(*rhs)) || (cfg.compare_elim && (big(*lhs) || big(*rhs)))
                    } else {
                        false
                    }
                } else {
                    false
                };
                // Slice-indexed addressing makes load-index chain uses free.
                let uses = if narrow_context || chain[u.index()] {
                    &mut narrow_uses
                } else {
                    &mut wide_uses
                };
                inst.for_each_operand(|op| uses[op.index()] += 1);
            }
            f.block(b)
                .term
                .for_each_operand(|op| wide_uses[op.index()] += 1);
        }
        let before = narrow.len();
        narrow.retain(|v| {
            let (n, w) = (narrow_uses[v.index()], wide_uses[v.index()]);
            if pressure_high && f.inst(*v).is_phi() {
                return true;
            }
            // φs carry a storage bonus even at low pressure.
            let bonus = i64::from(f.inst(*v).is_phi());
            n + bonus >= w && n + bonus > 0
        });
        elided.retain(|v| narrow.contains(v));
        // Removals can invalidate φ candidates again (a φ may now have a
        // non-narrow incoming).
        drop_unfed_phis(f, narrow, elided);
        if narrow.len() == before {
            break;
        }
    }
}

/// Profile-weighted cost/benefit gate: the squeezer transforms a function
/// only when the expected dynamic savings (slice ops replacing wide ops,
/// plus the register-packing effect when many narrow values are
/// simultaneously live) outweigh the expected overhead (zero-extensions at
/// wide consumers, speculative truncates bringing wide values into
/// slices). This mirrors the paper's profile-guided stance: transformation
/// decisions come from the training run, not static hope.
fn worth_squeezing(
    f: &Function,
    fid: FuncId,
    profile: &Profile,
    cand: &Candidates,
    live: &Liveness,
    chain: &[bool],
) -> bool {
    let count = |v: ValueId| profile.stats(fid, v).count;
    // Words of register storage a value occupies (W64 pairs count double —
    // narrowing them saves twice the storage and replaces two-instruction
    // pair operations with one slice op).
    let words = |v: ValueId| match f.value_width(v) {
        Some(Width::W64) => 2u64,
        _ => 1,
    };
    // Savings: every profiled execution of a narrowed op runs on a slice
    // (≈ ¼ the ALU/RF energy of a word op; pair ops also halve their
    // instruction count).
    let mut benefit: u64 = cand
        .narrow
        .iter()
        .map(|v| count(*v) * (1 + 2 * (words(*v) - 1)))
        .sum();
    // Packing: when many narrow values are live at once, slices free whole
    // registers and eliminate spill traffic — worth far more per event.
    if max_narrow_live(f, live, &cand.narrow, words) >= 6 {
        let phi_traffic: u64 = cand
            .narrow
            .iter()
            .filter(|v| f.inst(**v).is_phi())
            .map(|v| count(*v) * words(*v))
            .sum();
        benefit += phi_traffic * 30;
    }
    // Overhead: wide consumers of narrow values re-extend (≈ one extra
    // instruction per executed use), and wide producers feeding slices pay
    // a speculative truncate. Load-index chains lower onto the slice
    // addressing mode and cost nothing.
    let mut cost: u64 = 0;
    for b in f.block_ids() {
        for &u in &f.block(b).insts {
            let inst = f.inst(u);
            if cand.narrow.contains(&u) {
                // Narrow consumer: operands that are neither candidates,
                // small constants, nor 8-bit values need a spec-trunc.
                for op in inst.operands() {
                    let trivially_narrow = cand.narrow.contains(&op)
                        || const_u8(f, op).is_some()
                        || f.value_width(op) == Some(Width::W8);
                    if !trivially_narrow {
                        cost += count(u);
                    }
                }
            } else if !chain[u.index()] {
                // Wide consumer (slice-indexed addressing consumes for
                // free): each narrow operand costs a zext.
                let mut uc = count(u);
                inst.for_each_operand(|op| uc = uc.max(count(op)));
                inst.for_each_operand(|op| cost += uc * u64::from(cand.narrow.contains(&op)));
            }
        }
    }
    // A zext/trunc instruction costs roughly 6× the energy a single slice
    // op saves (fetch + decode + ALU + RF vs ¾ of an ALU op).
    benefit * 4 >= cost
}

// ---------------------------------------------------------------------------
// The main transformation
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_lines)]
fn squeeze_function(
    f: &mut Function,
    fid: FuncId,
    profile: &Profile,
    cfg: &SqueezeConfig,
    report: &mut SqueezeReport,
    phases: &mut SqueezePhases,
) {
    use std::time::Instant;
    // Quick reject: nothing profiled-narrow in this function.
    let any_candidate =
        (0..f.insts.len()).any(|v| profiled_narrow(profile, fid, cfg, ValueId::from(v)));
    if !any_candidate {
        return;
    }
    let t = Instant::now();
    hoist_allocas(f);
    let first = split_setup(f);
    let setup = f.entry;
    prepare_blocks(f, setup);
    phases.prepare += t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let idempotent: Vec<bool> = f
        .block_ids()
        .map(|b| f.block(b).insts.iter().all(|v| f.inst(*v).is_idempotent()))
        .collect();
    // Liveness of the original CFG, before cloning (handler live-ins; also
    // drives the register-pressure estimate in candidate selection).
    let live = Liveness::compute(f);
    let chain = index_chain_uses(f);
    let cand = select_candidates(f, fid, profile, cfg, &idempotent, &live, &chain);
    if cand.narrow.is_empty() {
        phases.analyze += t.elapsed().as_nanos() as u64;
        return;
    }
    if !worth_squeezing(f, fid, profile, &cand, &live, &chain) {
        phases.analyze += t.elapsed().as_nanos() as u64;
        return;
    }
    let def_block = sir::dom::def_blocks(f);
    phases.analyze += t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let orig_blocks: Vec<BlockId> = f.block_ids().filter(|b| *b != setup).collect();
    let orig_set: HashSet<BlockId> = orig_blocks.iter().copied().collect();
    let rpo: Vec<BlockId> = f
        .rpo()
        .into_iter()
        .filter(|b| orig_set.contains(b))
        .collect();

    let mut bmap: HashMap<BlockId, BlockId> = HashMap::new();
    for &b in &orig_blocks {
        bmap.insert(b, f.add_block());
    }
    let mut tf = Transform {
        f,
        cand: &cand,
        wide: HashMap::new(),
        narrow: HashMap::new(),
        narrow_const: HashMap::new(),
        trunc_cache: HashMap::new(),
        setup,
        report,
        spec_in_block: HashSet::new(),
    };
    let mut phis_to_fix: Vec<(ValueId, ValueId, bool)> = Vec::new();
    for &ob in &rpo {
        let sb = bmap[&ob];
        let insts = tf.f.block(ob).insts.clone();
        for v in insts {
            tf.clone_inst(fid, profile, cfg, v, sb, &mut phis_to_fix);
        }
        let mut term = tf.f.block(ob).term.clone();
        for op in term.operands() {
            let w = tf.wide_of(op, sb);
            term.map_operands(|x| if x == op { w } else { x });
        }
        term.map_successors(|s| *bmap.get(&s).unwrap_or(&s));
        tf.f.block_mut(sb).term = term;
    }
    // Second pass: φ incomings (back edges / later clones).
    for (ov, nv, is_narrow) in phis_to_fix {
        let Inst::Phi { incomings, .. } = tf.f.inst(ov).clone() else {
            unreachable!()
        };
        let mut new_inc = Vec::with_capacity(incomings.len());
        for (p, u) in incomings {
            let np = bmap[&p];
            let nu = if is_narrow {
                tf.narrow_incoming(u)
            } else {
                tf.wide_of(u, np)
            };
            new_inc.push((np, nu));
        }
        if let Inst::Phi { incomings: inc, .. } = tf.f.inst_mut(nv) {
            *inc = new_inc;
        }
    }
    // Extract the maps, ending the Transform borrow.
    let Transform {
        wide,
        narrow,
        spec_in_block,
        ..
    } = tf;

    // Enter the spec CFG from setup.
    f.block_mut(setup).term = Terminator::Br(bmap[&first]);
    phases.clone += t.elapsed().as_nanos() as u64;

    // ---- handler insertion (③) -------------------------------------------
    let t = std::time::Instant::now();
    let rev_bmap: HashMap<BlockId, BlockId> = bmap.iter().map(|(o, s)| (*s, *o)).collect();
    let mut spec_blocks: Vec<BlockId> = spec_in_block.into_iter().collect();
    spec_blocks.sort();
    // (orig value, handler block, extension value)
    let mut repair_defs: HashMap<ValueId, Vec<(BlockId, ValueId)>> = HashMap::new();
    for sb in spec_blocks {
        let ob = rev_bmap[&sb];
        let h = f.add_block();
        // Extend each live-in of the original block. Values defined in the
        // shared setup block dominate everything and need no extension.
        let live_in = live.live_in_of(ob);
        for u in live_in
            .iter()
            .filter(|u| def_block[u.index()].is_some_and(|b| b != setup))
        {
            // Only proper narrow *candidates* have a slice definition at
            // their own def site; a spec-trunc in the narrow map lives at a
            // use site — possibly inside this very region — and must not be
            // referenced by the handler (Theorem 3.1).
            let ext = if cand.narrow.contains(&u) {
                let n = narrow[&u];
                let ow = f.value_width(u).expect("live value has a width");
                if ow == Width::W8 {
                    n
                } else {
                    let z = f.add_inst(Inst::Zext { to: ow, arg: n });
                    f.block_mut(h).insts.push(z);
                    z
                }
            } else if let Some(&wv) = wide.get(&u) {
                wv
            } else {
                u // defined in setup: shared by both CFGs
            };
            repair_defs.entry(u).or_default().push((h, ext));
        }
        f.block_mut(h).term = Terminator::Br(ob);
        f.add_region(vec![sb], h);
        report.regions += 1;
    }
    phases.handlers += t.elapsed().as_nanos() as u64;

    // ---- SSA repair of CFG_orig -------------------------------------------
    // Every orig value that some handler re-materializes now has multiple
    // reaching definitions; rebuild SSA for its uses in CFG_orig.
    let t = std::time::Instant::now();
    if !repair_defs.is_empty() {
        let mut repair = crate::ssa_repair::SsaRepair::new(f);
        let mut vars: HashMap<ValueId, u32> = HashMap::new();
        // Deterministic iteration: HashMap order varies per process and
        // would make codegen (and therefore measured energy) fluctuate.
        let mut repair_items: Vec<(&ValueId, &Vec<(BlockId, ValueId)>)> =
            repair_defs.iter().collect();
        repair_items.sort_by_key(|(u, _)| **u);
        for (u, defs) in repair_items {
            let w = f.value_width(*u).expect("repaired value has width");
            let var = repair.fresh_var(w);
            vars.insert(*u, var);
            repair.define(var, def_block[u.index()].expect("placed"), *u);
            for (h, ext) in defs {
                repair.define(var, *h, *ext);
            }
        }
        // Rewrite uses in orig blocks (spec blocks use the clone maps; the
        // handlers' own extensions are already correct).
        let handler_set: HashSet<BlockId> = f.regions.iter().map(|r| r.handler).collect();
        for b in orig_blocks.clone() {
            if handler_set.contains(&b) {
                continue;
            }
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
                            if def_block[pv.index()] != Some(*pb) {
                                *pv = repair.read_at_exit(f, var, *pb);
                                changed = true;
                            }
                        }
                    }
                    if changed {
                        *f.inst_mut(v) = Inst::Phi { width, incomings };
                    }
                } else {
                    let ops = inst.operands();
                    let needs: Vec<ValueId> = ops
                        .iter()
                        .copied()
                        .filter(|o| vars.contains_key(o) && def_block[o.index()] != Some(b))
                        .collect();
                    if needs.is_empty() {
                        continue;
                    }
                    let mut map = HashMap::new();
                    for o in needs {
                        let r = repair.read_at_entry(f, vars[&o], b);
                        map.insert(o, r);
                    }
                    let mut inst2 = inst;
                    inst2.map_operands(|x| *map.get(&x).unwrap_or(&x));
                    *f.inst_mut(v) = inst2;
                }
            }
            let term_ops = f.block(b).term.operands();
            let needs: Vec<ValueId> = term_ops
                .iter()
                .copied()
                .filter(|o| vars.contains_key(o) && def_block[o.index()] != Some(b))
                .collect();
            if !needs.is_empty() {
                let mut map = HashMap::new();
                for o in needs {
                    let r = repair.read_at_entry(f, vars[&o], b);
                    map.insert(o, r);
                }
                let mut term = f.block(b).term.clone();
                term.map_operands(|x| *map.get(&x).unwrap_or(&x));
                f.block_mut(b).term = term;
            }
        }
    }
    phases.ssa_repair += t.elapsed().as_nanos() as u64;
    let t = std::time::Instant::now();
    f.remove_unreachable_blocks();
    crate::dce::run_function(f);
    phases.cleanup += t.elapsed().as_nanos() as u64;
}

struct Transform<'a> {
    f: &'a mut Function,
    cand: &'a Candidates,
    /// orig value → wide spec value (clone, or cached zext of a slice).
    wide: HashMap<ValueId, ValueId>,
    /// orig value → narrow (W8) spec value.
    narrow: HashMap<ValueId, ValueId>,
    /// small-constant cache (placed in setup).
    narrow_const: HashMap<u64, ValueId>,
    /// speculative-truncate cache, per (value, block): a truncate in one
    /// block does not dominate sibling blocks, so it cannot be shared
    /// across them.
    trunc_cache: HashMap<(ValueId, BlockId), ValueId>,
    setup: BlockId,
    report: &'a mut SqueezeReport,
    /// spec blocks containing at least one misspeculation-capable inst.
    spec_in_block: HashSet<BlockId>,
}

impl<'a> Transform<'a> {
    /// The W8 constant `c`, materialized once in the setup block.
    fn small_const(&mut self, c: u64) -> ValueId {
        if let Some(v) = self.narrow_const.get(&c) {
            return *v;
        }
        let v = self.f.add_inst(Inst::Const {
            width: Width::W8,
            value: c,
        });
        let setup = self.setup;
        self.f.block_mut(setup).insts.push(v);
        self.narrow_const.insert(c, v);
        v
    }

    /// Wide representative of orig value `u`, materialized *at the use
    /// site* (`at`): extending a slice right where a wide consumer needs it
    /// keeps the wide live range to a couple of instructions — caching the
    /// extension next to the (φ) definition would re-create the very
    /// register pressure the squeezer exists to remove.
    fn wide_of(&mut self, u: ValueId, at: BlockId) -> ValueId {
        if let Some(w) = self.wide.get(&u) {
            return *w;
        }
        if let Some(n) = self.narrow.get(&u).copied() {
            let ow = self.f.value_width(u).expect("narrowed value has width");
            let z = self.f.add_inst(Inst::Zext { to: ow, arg: n });
            self.f.block_mut(at).insts.push(z);
            return z;
        }
        // Defined in setup (param/alloca): shared between both CFGs.
        u
    }

    /// Narrow (slice) representative of `u`, inserting a speculative
    /// truncate in `sb` if needed.
    fn narrow_of(&mut self, u: ValueId, sb: BlockId) -> ValueId {
        if let Some(n) = self.narrow.get(&u) {
            return *n;
        }
        if let Some(c) = const_u8(self.f, u) {
            return self.small_const(c);
        }
        if self.f.value_width(u) == Some(Width::W8) {
            return self.wide_of(u, sb);
        }
        if let Some(t) = self.trunc_cache.get(&(u, sb)) {
            return *t;
        }
        let wu = self.wide_of(u, sb);
        let t = self.f.add_inst(Inst::Trunc {
            to: Width::W8,
            arg: wu,
            speculative: true,
        });
        self.f.block_mut(sb).insts.push(t);
        self.trunc_cache.insert((u, sb), t);
        self.spec_in_block.insert(sb);
        self.report.spec_truncs += 1;
        t
    }

    /// Narrow representative for a φ incoming (no insertion allowed): the
    /// candidate fixpoint guarantees this resolves.
    fn narrow_incoming(&mut self, u: ValueId) -> ValueId {
        if let Some(n) = self.narrow.get(&u) {
            return *n;
        }
        if let Some(c) = const_u8(self.f, u) {
            return self.small_const(c);
        }
        debug_assert_eq!(self.f.value_width(u), Some(Width::W8));
        // An original W8 value's spec clone (wide map) serves directly.
        *self.wide.get(&u).unwrap_or(&u)
    }

    fn clone_inst(
        &mut self,
        fid: FuncId,
        profile: &Profile,
        cfg: &SqueezeConfig,
        v: ValueId,
        sb: BlockId,
        phis_to_fix: &mut Vec<(ValueId, ValueId, bool)>,
    ) {
        let inst = self.f.inst(v).clone();
        if self.cand.narrow.contains(&v) {
            match inst {
                Inst::Bin { op, lhs, rhs, .. } => {
                    if self.cand.elided.contains(&v) {
                        // x & 0xFF → exact slice read (plain truncate).
                        let wl = self.wide_of(lhs, sb);
                        let nv = self.f.add_inst(Inst::Trunc {
                            to: Width::W8,
                            arg: wl,
                            speculative: false,
                        });
                        self.f.block_mut(sb).insts.push(nv);
                        self.narrow.insert(v, nv);
                        self.report.bitmasks_elided += 1;
                        self.report.narrowed += 1;
                        return;
                    }
                    let nl = self.narrow_of(lhs, sb);
                    let nr = self.narrow_of(rhs, sb);
                    let spec = misspec_capable(op);
                    let nv = self.f.add_inst(Inst::Bin {
                        op,
                        width: Width::W8,
                        lhs: nl,
                        rhs: nr,
                        speculative: spec,
                    });
                    self.f.block_mut(sb).insts.push(nv);
                    if spec {
                        self.spec_in_block.insert(sb);
                    }
                    self.narrow.insert(v, nv);
                    self.report.narrowed += 1;
                }
                Inst::Load { addr, .. } => {
                    let wa = self.wide_of(addr, sb);
                    let nv = self.f.add_inst(Inst::Load {
                        width: Width::W32,
                        addr: wa,
                        volatile: false,
                        speculative: true,
                    });
                    self.f.block_mut(sb).insts.push(nv);
                    self.spec_in_block.insert(sb);
                    self.narrow.insert(v, nv);
                    self.report.narrowed += 1;
                }
                Inst::Zext { arg, .. } => {
                    // Slice-exact: the narrow value *is* the argument.
                    let na = self.narrow_of(arg, sb);
                    self.narrow.insert(v, na);
                    self.report.narrowed += 1;
                }
                Inst::Phi { .. } => {
                    let nv = self.f.add_inst(Inst::Phi {
                        width: Width::W8,
                        incomings: Vec::new(),
                    });
                    let pos = self
                        .f
                        .block(sb)
                        .insts
                        .iter()
                        .take_while(|x| self.f.inst(**x).is_phi())
                        .count();
                    self.f.block_mut(sb).insts.insert(pos, nv);
                    self.narrow.insert(v, nv);
                    phis_to_fix.push((v, nv, true));
                    self.report.narrowed += 1;
                }
                _ => unreachable!("unexpected narrow candidate kind"),
            }
            return;
        }
        // Compare handling: elimination or slice compare.
        if let Inst::Icmp {
            cc,
            width,
            lhs,
            rhs,
        } = &inst
        {
            if is_wide(*width) && !cc.is_signed() {
                let fits8 = |x: ValueId| profiled_narrow(profile, fid, cfg, x);
                let big_const = |f: &Function, x: ValueId| match f.inst(x) {
                    Inst::Const { value, .. } if *value > 0xFF => Some(*value),
                    _ => None,
                };
                if cfg.compare_elim {
                    let elim = if self.cand.narrow.contains(lhs)
                        && big_const(self.f, *rhs).is_some()
                    {
                        Some(match cc {
                            Cc::Ult | Cc::Ule | Cc::Ne => true,
                            Cc::Ugt | Cc::Uge | Cc::Eq => false,
                            _ => unreachable!("signed filtered"),
                        })
                    } else if self.cand.narrow.contains(rhs) && big_const(self.f, *lhs).is_some() {
                        Some(match cc {
                            Cc::Ugt | Cc::Uge | Cc::Ne => true,
                            Cc::Ult | Cc::Ule | Cc::Eq => false,
                            _ => unreachable!("signed filtered"),
                        })
                    } else {
                        None
                    };
                    if let Some(truth) = elim {
                        let nv = self.f.add_inst(Inst::Const {
                            width: Width::W1,
                            value: u64::from(truth),
                        });
                        self.f.block_mut(sb).insts.push(nv);
                        self.wide.insert(v, nv);
                        self.report.compares_eliminated += 1;
                        return;
                    }
                }
                let idempotent_here = self
                    .f
                    .block(sb)
                    .insts
                    .iter()
                    .all(|x| self.f.inst(*x).is_idempotent());
                let side_ok = |tf: &Transform<'_>, x: ValueId| {
                    tf.cand.narrow.contains(&x)
                        || const_u8(tf.f, x).is_some()
                        || tf.f.value_width(x) == Some(Width::W8)
                        || fits8(x)
                };
                if idempotent_here && side_ok(self, *lhs) && side_ok(self, *rhs) {
                    let nl = self.narrow_of(*lhs, sb);
                    let nr = self.narrow_of(*rhs, sb);
                    let nv = self.f.add_inst(Inst::Icmp {
                        cc: *cc,
                        width: Width::W8,
                        lhs: nl,
                        rhs: nr,
                    });
                    self.f.block_mut(sb).insts.push(nv);
                    self.wide.insert(v, nv);
                    return;
                }
            }
        }
        // Plain wide clone.
        if let Inst::Phi { width, .. } = &inst {
            let nv = self.f.add_inst(Inst::Phi {
                width: *width,
                incomings: Vec::new(),
            });
            let pos = self
                .f
                .block(sb)
                .insts
                .iter()
                .take_while(|x| self.f.inst(**x).is_phi())
                .count();
            self.f.block_mut(sb).insts.insert(pos, nv);
            self.wide.insert(v, nv);
            phis_to_fix.push((v, nv, false));
            return;
        }
        let mut cloned = inst;
        let mut map = HashMap::new();
        for op in cloned.operands() {
            map.insert(op, self.wide_of(op, sb));
        }
        cloned.map_operands(|x| *map.get(&x).unwrap_or(&x));
        let nv = self.f.add_inst(cloned);
        self.f.block_mut(sb).insts.push(nv);
        self.wide.insert(v, nv);
    }
}

// ---------------------------------------------------------------------------
// No-speculation register packing (RQ2)
// ---------------------------------------------------------------------------

/// Statically narrows provably-8-bit values without any speculation
/// support: modular ops (add/sub/mul/shl and bitwise logic) whose results
/// are proven ≤ 255 by the known-bits analysis are computed in slices.
/// Sound because for modular ops, `low8(op(a, b)) == op(low8 a, low8 b)`,
/// and a proven-≤255 result equals its own low byte.
fn pack_function_static(f: &mut Function, report: &mut SqueezeReport) {
    let maxv = crate::knownbits::max_values(f);
    let modular = |op: BinOp| {
        matches!(
            op,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Shl | BinOp::And | BinOp::Or | BinOp::Xor
        )
    };
    let mut selected: HashSet<ValueId> = HashSet::new();
    for b in f.block_ids() {
        for &v in &f.block(b).insts {
            if let Inst::Bin {
                op,
                width,
                speculative: false,
                ..
            } = f.inst(v)
            {
                if is_wide(*width) && modular(*op) && maxv[v.index()] <= 0xFF {
                    selected.insert(v);
                }
            }
        }
    }
    if selected.is_empty() {
        return;
    }
    let mut narrow_map: HashMap<ValueId, ValueId> = HashMap::new();
    for b in f.rpo() {
        let insts = f.block(b).insts.clone();
        for v in insts {
            if !selected.contains(&v) {
                continue;
            }
            let Inst::Bin { op, lhs, rhs, .. } = f.inst(v).clone() else {
                continue;
            };
            let pos = f.block(b).insts.iter().position(|x| *x == v).unwrap();
            let mut at = pos;
            let slice_of = |f: &mut Function, u: ValueId, at: &mut usize| -> ValueId {
                if let Some(n) = narrow_map.get(&u) {
                    return *n;
                }
                if f.value_width(u) == Some(Width::W8) {
                    return u;
                }
                if let Inst::Const { value, .. } = f.inst(u).clone() {
                    let c = f.add_inst(Inst::Const {
                        width: Width::W8,
                        value: value & 0xFF,
                    });
                    f.block_mut(b).insts.insert(*at, c);
                    *at += 1;
                    return c;
                }
                let t = f.add_inst(Inst::Trunc {
                    to: Width::W8,
                    arg: u,
                    speculative: false,
                });
                f.block_mut(b).insts.insert(*at, t);
                *at += 1;
                t
            };
            let nl = slice_of(f, lhs, &mut at);
            let nr = slice_of(f, rhs, &mut at);
            let nv = f.add_inst(Inst::Bin {
                op,
                width: Width::W8,
                lhs: nl,
                rhs: nr,
                speculative: false,
            });
            // Insert right after the wide op (which DCE will remove once
            // its uses are redirected).
            f.block_mut(b).insts.insert(at + 1, nv);
            narrow_map.insert(v, nv);
            report.narrowed += 1;
        }
    }
    // Redirect consumers: narrowed consumers use the slice twin; everything
    // else reads a zero-extension placed next to the twin.
    let def_block = sir::dom::def_blocks(f);
    let mut zext_cache: HashMap<ValueId, ValueId> = HashMap::new();
    let narrow_twins: HashSet<ValueId> = narrow_map.values().copied().collect();
    for v in (0..f.insts.len() as u32).map(ValueId).collect::<Vec<_>>() {
        if narrow_twins.contains(&v) {
            continue;
        }
        let inst = f.inst(v).clone();
        let ops = inst.operands();
        if !ops.iter().any(|o| narrow_map.contains_key(o)) {
            continue;
        }
        let mut map = HashMap::new();
        for o in ops {
            if let Some(&n) = narrow_map.get(&o) {
                if narrow_map.contains_key(&v) {
                    // The consumer is itself narrowed and already reads
                    // slices via its own operand handling.
                    continue;
                }
                let z = *zext_cache.entry(o).or_insert_with(|| {
                    let ow = f.value_width(o).unwrap();
                    let z = f.add_inst(Inst::Zext { to: ow, arg: n });
                    let db = def_block[o.index()].expect("placed");
                    let p = f.block(db).insts.iter().position(|x| *x == n).unwrap() + 1;
                    f.block_mut(db).insts.insert(p, z);
                    z
                });
                map.insert(o, z);
            }
        }
        if map.is_empty() {
            continue;
        }
        let mut inst2 = inst;
        inst2.map_operands(|x| *map.get(&x).unwrap_or(&x));
        *f.inst_mut(v) = inst2;
    }
    for b in f.block_ids().collect::<Vec<_>>() {
        let mut term = f.block(b).term.clone();
        let mut changed = false;
        term.map_operands(|x| {
            if let Some(z) = zext_cache.get(&x) {
                changed = true;
                *z
            } else {
                x
            }
        });
        if changed {
            f.block_mut(b).term = term;
        }
    }
    crate::dce::run_function(f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp::Interpreter;

    /// Compiles, profiles on one run, squeezes, and differentially checks
    /// outputs plus the verifier.
    fn check(src: &str, cfg: &SqueezeConfig) -> (sir::Module, sir::Module, SqueezeReport) {
        let m0 = lang::compile("t", src).unwrap();
        let mut prof_i = Interpreter::new(&m0);
        prof_i.enable_profiling();
        prof_i.run("main", &[]).unwrap();
        let profile = prof_i.take_profile().unwrap();
        let mut m1 = m0.clone();
        let report = squeeze_module(&mut m1, &profile, cfg);
        sir::verify::verify_module(&m1).expect("squeezed module verifies");
        let mut i0 = Interpreter::new(&m0);
        let mut i1 = Interpreter::new(&m1);
        let r0 = i0.run("main", &[]).unwrap();
        let r1 = i1.run("main", &[]).unwrap();
        assert_eq!(r0.outputs, r1.outputs, "differential outputs must match");
        (m0, m1, report)
    }

    #[test]
    fn narrow_loop_is_squeezed_without_misspec() {
        // All values stay < 100: the MAX heuristic narrows them and no
        // misspeculation ever fires.
        let src = "void main() {
            u32 s = 0;
            for (u32 i = 0; i < 10; i++) { s += i; }
            out(s);
        }";
        let (_, m1, report) = check(src, &SqueezeConfig::default());
        assert!(report.narrowed > 0, "loop values should be narrowed");
        assert!(report.regions > 0, "speculative regions should exist");
        let mut i1 = Interpreter::new(&m1);
        let r1 = i1.run("main", &[]).unwrap();
        assert_eq!(r1.stats.misspecs, 0, "profile covers the whole range");
        assert!(
            r1.stats.by_declared[0] > 0,
            "squeezed program executes 8-bit assignments"
        );
    }

    #[test]
    fn paper_running_example_misspeculates_once() {
        // The §3 example: x counts 0..=255, then one more increment
        // overflows the slice; MAX profile (on the same input) sees 9 bits
        // for the final value… so profile with a *smaller* range via AVG.
        let src = "void main() {
            u32 x = 0;
            do { x += 1; } while (x <= 255);
            out(x);
        }";
        // With MAX the add targets 9 bits (not squeezed): no misspec.
        let (_, m_max, _) = check(src, &SqueezeConfig::default());
        let mut i = Interpreter::new(&m_max);
        let r = i.run("main", &[]).unwrap();
        assert_eq!(r.outputs, vec![256]);
        // With AVG the add is squeezed to 8 bits and must misspeculate.
        let cfg = SqueezeConfig {
            heuristic: Heuristic::Avg,
            ..Default::default()
        };
        let (_, m_avg, report) = check(src, &cfg);
        assert!(report.narrowed > 0);
        let mut i = Interpreter::new(&m_avg);
        let r = i.run("main", &[]).unwrap();
        assert_eq!(r.outputs, vec![256], "handler must recover the value");
        assert!(r.stats.misspecs >= 1, "the 255→256 step must misspeculate");
    }

    #[test]
    fn memory_traffic_preserved_under_misspeculation() {
        // Stores before the misspeculating instruction re-execute in
        // CFG_orig; idempotence (eq. 4) keeps this safe.
        let src = "global u32 buf[300];
        void main() {
            u32 v = 0;
            for (u32 i = 0; i < 300; i++) {
                v = v + 1;
                buf[i] = v;
            }
            out(buf[0]); out(buf[200]); out(buf[299]);
        }";
        let cfg = SqueezeConfig {
            heuristic: Heuristic::Min,
            ..Default::default()
        };
        let (_, m1, _) = check(src, &cfg);
        let mut i = Interpreter::new(&m1);
        let r = i.run("main", &[]).unwrap();
        assert_eq!(r.outputs, vec![1, 201, 300]);
    }

    #[test]
    fn spec_load_narrows_table_reads() {
        let src = "global u32 table[16] = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16};
        void main() {
            u32 s = 0;
            for (u32 i = 0; i < 16; i++) { s += table[i]; }
            out(s);
        }";
        let (_, m1, report) = check(src, &SqueezeConfig::default());
        assert!(report.narrowed > 0);
        let f = m1.func(m1.func_by_name("main").unwrap());
        let spec_loads = f
            .block_ids()
            .flat_map(|b| f.block(b).insts.clone())
            .filter(|v| {
                matches!(
                    f.inst(*v),
                    Inst::Load {
                        speculative: true,
                        ..
                    }
                )
            })
            .count();
        assert!(spec_loads > 0, "table reads should use speculative loads");
    }

    #[test]
    fn bitmask_elision_reported() {
        // The masked value feeds a narrow loop-carried accumulator, the
        // pattern encoding kernels (blowfish/rijndael) hit constantly.
        let src = "global u8 data[32];
        void main() {
            u32 s = 0;
            for (u32 i = 0; i < 32; i++) {
                u32 x = data[i] * 33 + i;
                s = (s ^ (x & 0xFF)) & 0xFF;
            }
            out(s);
        }";
        let (_, _, report) = check(src, &SqueezeConfig::default());
        assert!(report.bitmasks_elided > 0);
        let cfg = SqueezeConfig {
            bitmask_elision: false,
            ..Default::default()
        };
        let (_, _, r2) = check(src, &cfg);
        assert_eq!(r2.bitmasks_elided, 0);
    }

    #[test]
    fn calls_and_volatile_are_never_speculated() {
        let src = "
        u32 helper(u32 x) { return x * 2; }
        void main() {
            u32 s = 0;
            for (u32 i = 0; i < 20; i++) { s += helper(i) & 0xF; }
            out(s);
        }";
        let (_, m1, _) = check(src, &SqueezeConfig::default());
        for f in &m1.funcs {
            for r in &f.regions {
                for &b in &r.blocks {
                    for &v in &f.block(b).insts {
                        assert!(
                            f.inst(v).is_idempotent(),
                            "non-idempotent inst inside a region"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn no_speculation_mode_only_static_narrowing() {
        let src = "void main() {
            u32 x = 0x1234;
            u32 lo = x & 0xFF;        // provably ≤ 255
            u32 n  = (x & 0xF) + (x & 0xF);  // provably ≤ 30
            out(lo + n);
        }";
        let cfg = SqueezeConfig {
            speculation: false,
            ..Default::default()
        };
        let (_, m1, report) = check(src, &cfg);
        assert!(report.narrowed > 0, "static packing finds masked values");
        assert_eq!(report.regions, 0, "no regions without speculation");
        for f in &m1.funcs {
            assert!(f.regions.is_empty());
            for i in &f.insts {
                assert!(!i.is_speculative(), "no speculative insts in RQ2 mode");
            }
        }
    }

    #[test]
    fn unprofiled_function_untouched() {
        let src = "
        u32 cold(u32 x) { return x + 1; }  // never called during profiling
        void main() { out(3); }
        ";
        let (m0, m1, _) = check(src, &SqueezeConfig::default());
        let c0 = m0.func(m0.func_by_name("cold").unwrap()).static_size();
        let c1 = m1.func(m1.func_by_name("cold").unwrap()).static_size();
        assert_eq!(c0, c1);
    }

    #[test]
    fn min_heuristic_misspeculates_more_than_max() {
        // Values span 1..=1000; MIN narrows aggressively and pays misspecs.
        let src = "void main() {
            u32 s = 0;
            for (u32 i = 0; i < 1000; i++) { s = s + 1; }
            out(s);
        }";
        let run_with = |h: Heuristic| -> u64 {
            let cfg = SqueezeConfig {
                heuristic: h,
                ..Default::default()
            };
            let (_, m1, _) = check(src, &cfg);
            let mut i = Interpreter::new(&m1);
            i.run("main", &[]).unwrap().stats.misspecs
        };
        let max_ms = run_with(Heuristic::Max);
        let min_ms = run_with(Heuristic::Min);
        assert!(
            min_ms >= max_ms,
            "MIN must misspeculate at least as often as MAX ({min_ms} vs {max_ms})"
        );
    }

    #[test]
    fn branchy_code_with_narrow_values() {
        let src = "void main() {
            u32 acc = 0;
            for (u32 i = 0; i < 60; i++) {
                u32 d = i & 7;
                if (d > 3) { acc += d; } else { acc += 1; }
            }
            out(acc);
        }";
        check(src, &SqueezeConfig::default());
    }

    #[test]
    fn compare_elimination_folds_slice_vs_wide_const() {
        let src = "void main() {
            u32 s = 0;
            for (u32 i = 0; i < 50; i++) {
                if (i < 1000) { s += 1; }   // i is slice-narrow; 1000 > 255
            }
            out(s);
        }";
        let (_, _, report) = check(src, &SqueezeConfig::default());
        assert!(
            report.compares_eliminated > 0,
            "i < 1000 should fold via speculation"
        );
        let cfg = SqueezeConfig {
            compare_elim: false,
            ..Default::default()
        };
        let (_, _, r2) = check(src, &cfg);
        assert_eq!(r2.compares_eliminated, 0);
    }
}
