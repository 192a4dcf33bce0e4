//! Slice-aware register allocation (§3.3.3).
//!
//! A greedy scan over *segmented live ranges* (lifetime holes included):
//! each virtual register's lifetime is a set of disjoint position
//! intervals — one per block where it is live, bounded inside the block by
//! its first/last definition or use. Liveness flows across misspeculation
//! edges (equation 2), so anything a handler reads stays live through its
//! whole region and the handler always finds its inputs intact.
//!
//! Word virtual registers claim all four slices of a physical register;
//! byte virtual registers claim one slice — several byte values *pack*
//! into one register, which is BITSPEC's register-file win. Values live
//! across a call are restricted to callee-saved registers (`r4–r10`).
//! Spills use a spill-everywhere scheme materialized at emission, tagged
//! for the Figure 10 accounting.
//!
//! The paper's RQ5 branch-weight heuristic maps onto *allocation order*:
//! with `spill_prefer_orig` (the default) `CFG_spec` values allocate first
//! and therefore spill last — the "handlers are almost never entered"
//! assumption. Inverting the flag prioritizes `CFG_orig`.

use crate::isel::CodegenOpts;
use crate::mir::{MBlockId, MirFunction, MirInst, RegClass, VReg};
use isa::Reg;
use sir::bitset::BitRows;
use sir::dataflow::Edges;
use sir::liveness;

/// Where a virtual register ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// A whole physical register (word class).
    Reg(Reg),
    /// A byte slice of a physical register (byte class).
    Slice(isa::Slice),
    /// A frame spill slot (index; 4 bytes each).
    Spill(u32),
    /// *Write-through homing*: the value lives in a register on the hot
    /// speculative path, but every definition also stores to a frame slot,
    /// which misspeculation handlers (and `CFG_orig`) read. This is the
    /// spill-everywhere analogue of the paper's low-handler-branch-weight
    /// trick: spill traffic sinks to the cold side.
    WriteThrough { reg: Reg, slot: u32 },
    /// Write-through homing for a byte (slice) value.
    WriteThroughSlice { slice: isa::Slice, slot: u32 },
}

/// Allocation result consumed by the emitter.
#[derive(Debug, Clone)]
pub struct AllocatedFn {
    pub mir: MirFunction,
    /// Location per vreg (indexed by vreg number).
    pub locs: Vec<Loc>,
    /// Number of spill slots used.
    pub spill_slots: u32,
    /// Callee-saved registers written by this function.
    pub used_callee_saved: Vec<Reg>,
    /// Whether the function makes calls (needs lr saved).
    pub has_calls: bool,
    /// Final block layout order (spec segment first).
    pub order: Vec<MBlockId>,
}

const CALLER_SAVED: [Reg; 4] = [Reg(0), Reg(1), Reg(2), Reg(3)];
const CALLEE_SAVED: [Reg; 7] = [Reg(4), Reg(5), Reg(6), Reg(7), Reg(8), Reg(9), Reg(10)];
/// Compact (Thumb-like) mode: only r0–r7 are generally usable.
const CALLEE_SAVED_COMPACT: [Reg; 4] = [Reg(4), Reg(5), Reg(6), Reg(7)];

/// Disjoint, sorted position intervals.
type Segments = Vec<(u32, u32)>;

/// An interval map per register slice: `(start, end, owning vreg)` kept
/// sorted by start. Intervals within one slice are disjoint (a slice only
/// ever hosts non-conflicting vregs), so overlap tests are one binary
/// search + one predecessor check per query segment.
#[derive(Debug, Clone, Default)]
struct SliceOccupancy {
    ivals: Vec<(u32, u32, u32)>,
}

impl SliceOccupancy {
    fn conflicts(&self, segs: &Segments) -> bool {
        for &(s, e) in segs {
            // Any existing interval with start < e whose end > s overlaps.
            let i = self.ivals.partition_point(|&(st, _, _)| st < e);
            if i > 0 && self.ivals[i - 1].1 > s {
                return true;
            }
        }
        false
    }

    fn insert(&mut self, segs: &Segments, owner: u32) {
        for &(s, e) in segs {
            let i = self.ivals.partition_point(|&(st, _, _)| st < s);
            self.ivals.insert(i, (s, e, owner));
        }
    }
}

/// Runs the allocator over a MIR function.
pub fn allocate(mir: MirFunction, opts: &CodegenOpts) -> AllocatedFn {
    let order = layout_order(&mir);
    let n = mir.classes.len();
    let lv = build_ranges(&mir, &order, true);
    // Handler-edge-free ranges for the write-through fallback.
    let lv_plain = if mir.regions.is_empty() {
        None
    } else {
        Some(build_ranges(&mir, &order, false))
    };

    let callee: &[Reg] = if opts.compact {
        &CALLEE_SAVED_COMPACT
    } else {
        &CALLEE_SAVED
    };
    // Values live across a call take callee-saved registers only; the rest
    // try caller-saved registers first.
    let any_reg: Vec<Reg> = CALLER_SAVED.iter().chain(callee).copied().collect();

    // Allocation order: the prioritized side first (RQ5 heuristic); within
    // a side, values *without* handler-edge range extensions first — they
    // have no write-through fallback, so they must win pure registers —
    // then by range start.
    let handler_extended: Vec<bool> = (0..n)
        .map(|v| {
            lv_plain
                .as_ref()
                .map(|p| p.segs[v] != lv.segs[v])
                .unwrap_or(false)
        })
        .collect();
    let mut vregs: Vec<usize> = (0..n).filter(|v| !lv.segs[*v].is_empty()).collect();
    vregs.sort_by_key(|&v| {
        let spec = lv.def_side[v];
        let prioritized = spec == opts.spill_prefer_orig; // prefer_orig ⇒ spec first
        (!prioritized, handler_extended[v], lv.segs[v][0].0)
    });

    let mut occupancy: Vec<[SliceOccupancy; 4]> = (0..16)
        .map(|_| std::array::from_fn(|_| SliceOccupancy::default()))
        .collect();
    let mut hosts_bytes = [false; 16];
    let mut locs: Vec<Loc> = vec![Loc::Spill(u32::MAX); n];
    let mut next_spill = 0u32;
    let mut used_callee = [false; 16];

    // Claims `loc` for `v` in the occupancy tables.
    macro_rules! claim {
        ($v:expr, $loc:expr, $segs:expr) => {{
            let loc = $loc;
            let (r, slices) = match loc {
                Loc::Reg(r) | Loc::WriteThrough { reg: r, .. } => (r, 0..4),
                Loc::Slice(sl) | Loc::WriteThroughSlice { slice: sl, .. } => {
                    hosts_bytes[sl.reg.index()] = true;
                    (sl.reg, sl.byte as usize..sl.byte as usize + 1)
                }
                Loc::Spill(_) => unreachable!(),
            };
            for slice_occ in &mut occupancy[r.index()][slices] {
                slice_occ.insert($segs, $v as u32);
            }
            used_callee[r.index()] |= callee.contains(&r);
            locs[$v] = loc;
        }};
    }

    // Finds a free register/slice for `segs` in `pool`.
    let find_free = |occupancy: &Vec<[SliceOccupancy; 4]>,
                     hosts_bytes: &[bool; 16],
                     class: RegClass,
                     pool: &[Reg],
                     segs: &Segments|
     -> Option<Loc> {
        match class {
            RegClass::Word => pool
                .iter()
                .find(|r| (0..4).all(|s| !occupancy[r.index()][s].conflicts(segs)))
                .map(|r| Loc::Reg(*r)),
            RegClass::Byte => {
                let mut best: Option<(u32, Reg, u8)> = None;
                for &r in pool {
                    for sl in 0..4u8 {
                        if occupancy[r.index()][sl as usize].conflicts(segs) {
                            continue;
                        }
                        let score = u32::from(hosts_bytes[r.index()]) * 10 + (4 - u32::from(sl));
                        if best.map(|(b, _, _)| score > b).unwrap_or(true) {
                            best = Some((score, r, sl));
                        }
                        break;
                    }
                }
                best.map(|(_, r, sl)| Loc::Slice(isa::Slice::new(r, sl)))
            }
        }
    };

    for &v in &vregs {
        let segs = &lv.segs[v];
        let pool = if crosses_call(segs, &lv.call_positions) {
            callee
        } else {
            &any_reg
        };
        let class = mir.classes[v];
        if let Some(loc) = find_free(&occupancy, &hosts_bytes, class, pool, segs) {
            claim!(v, loc, segs);
            continue;
        }
        // No register: write-through on the handler-edge-free range, else
        // spill.
        rehome(
            v,
            &mir,
            &lv,
            lv_plain.as_ref(),
            pool,
            callee,
            &mut occupancy,
            &mut hosts_bytes,
            &mut locs,
            &mut next_spill,
            &mut used_callee,
        );
    }
    let has_calls = mir
        .blocks
        .iter()
        .any(|b| b.insts.iter().any(MirInst::is_call));
    let used_callee_saved: Vec<Reg> = callee
        .iter()
        .copied()
        .filter(|r| used_callee[r.index()])
        .collect();
    AllocatedFn {
        mir,
        locs,
        spill_slots: next_spill,
        used_callee_saved,
        has_calls,
        order,
    }
}

/// Checks the invariants the emitter relies on, returning the first
/// violation:
///
/// * every live vreg has a location, of its register class;
/// * no two vregs with overlapping live ranges occupy the same register
///   slice (a word location claims all four slices; write-through homing
///   claims its register only on the handler-edge-free range — handlers
///   read the frame slot);
/// * frame slots are pairwise disjoint and within `spill_slots`.
///
/// The fuzz subsystem's property tests drive this over generated programs.
///
/// # Errors
/// Returns a description of the violated invariant.
pub fn validate(a: &AllocatedFn) -> Result<(), String> {
    let lv = build_ranges(&a.mir, &a.order, true);
    let lv_plain = if a.mir.regions.is_empty() {
        None
    } else {
        Some(build_ranges(&a.mir, &a.order, false))
    };
    let n = a.mir.classes.len();

    // The position range a vreg's *register* is claimed on, and which
    // slices of which register it occupies (None = frame only).
    let reg_claim = |v: usize| -> Option<(Reg, [bool; 4], &Segments)> {
        let full = &lv.segs[v];
        let plain = lv_plain.as_ref().map(|p| &p.segs[v]).unwrap_or(full);
        match a.locs[v] {
            Loc::Reg(r) => Some((r, [true; 4], full)),
            Loc::WriteThrough { reg, .. } => Some((reg, [true; 4], plain)),
            Loc::Slice(sl) => {
                let mut m = [false; 4];
                m[sl.byte as usize] = true;
                Some((sl.reg, m, full))
            }
            Loc::WriteThroughSlice { slice, .. } => {
                let mut m = [false; 4];
                m[slice.byte as usize] = true;
                Some((slice.reg, m, plain))
            }
            Loc::Spill(_) => None,
        }
    };

    let mut slots: Vec<(u32, usize)> = Vec::new();
    for v in 0..n {
        if lv.segs[v].is_empty() {
            continue; // never referenced; location is meaningless
        }
        match (a.mir.classes[v], a.locs[v]) {
            (RegClass::Word, Loc::Slice(_) | Loc::WriteThroughSlice { .. }) => {
                return Err(format!(
                    "word vreg v{v} assigned byte slice {:?}",
                    a.locs[v]
                ));
            }
            (RegClass::Byte, Loc::Reg(_) | Loc::WriteThrough { .. }) => {
                return Err(format!(
                    "byte vreg v{v} assigned whole register {:?}",
                    a.locs[v]
                ));
            }
            _ => {}
        }
        match a.locs[v] {
            Loc::Spill(u32::MAX) => return Err(format!("live vreg v{v} left unallocated")),
            Loc::Spill(s) => slots.push((s, v)),
            Loc::WriteThrough { slot, .. } | Loc::WriteThroughSlice { slot, .. } => {
                slots.push((slot, v));
            }
            _ => {}
        }
    }

    slots.sort_unstable();
    for w in slots.windows(2) {
        if w[0].0 == w[1].0 {
            return Err(format!(
                "vregs v{} and v{} share frame slot {}",
                w[0].1, w[1].1, w[0].0
            ));
        }
    }
    if let Some(&(s, v)) = slots.last() {
        if s >= a.spill_slots {
            return Err(format!(
                "vreg v{v} uses slot {s} but only {} slots reserved",
                a.spill_slots
            ));
        }
    }

    let overlap = |x: &Segments, y: &Segments| {
        x.iter()
            .any(|&(s1, e1)| y.iter().any(|&(s2, e2)| s1 < e2 && s2 < e1))
    };
    for x in 0..n {
        let Some((rx, mx, sx)) = reg_claim(x) else {
            continue;
        };
        for y in (x + 1)..n {
            let Some((ry, my, sy)) = reg_claim(y) else {
                continue;
            };
            if rx != ry || !(0..4).any(|i| mx[i] && my[i]) {
                continue;
            }
            if overlap(sx, sy) {
                return Err(format!(
                    "vregs v{x} ({:?}) and v{y} ({:?}) overlap in {rx:?}",
                    a.locs[x], a.locs[y]
                ));
            }
        }
    }
    Ok(())
}

/// Block layout order: the spec side (entry first) in RPO, then `CFG_orig`
/// and handlers. The spec segment must be contiguous for the Δ skeleton
/// mechanism (§3.3.4).
pub fn layout_order(mir: &MirFunction) -> Vec<MBlockId> {
    let rpo = mir_rpo(mir);
    let mut order: Vec<MBlockId> = Vec::new();
    for &b in &rpo {
        if mir.block(b).spec_side {
            order.push(b);
        }
    }
    for &b in &rpo {
        if !mir.block(b).spec_side {
            order.push(b);
        }
    }
    let mut placed = vec![false; mir.blocks.len()];
    for &b in &order {
        placed[b.index()] = true;
    }
    for b in mir.block_ids() {
        if !placed[b.index()] {
            order.push(b);
        }
    }
    order
}

fn mir_rpo(mir: &MirFunction) -> Vec<MBlockId> {
    let post = Edges::of(&mir.cfg(true)).postorder([mir.entry.index()]);
    post.into_iter().rev().map(|b| MBlockId(b as u32)).collect()
}

struct LiveRanges {
    /// Disjoint position segments per vreg.
    segs: Vec<Segments>,
    /// Whether the vreg is defined on the spec side.
    def_side: Vec<bool>,
    /// Linear positions of calls.
    call_positions: Vec<u32>,
}

/// Places `v` without evicting: tries a pure register on its full range,
/// then write-through homing on its handler-edge-free range, then a spill
/// slot.
#[allow(clippy::too_many_arguments)]
fn rehome(
    v: usize,
    mir: &MirFunction,
    lv: &LiveRanges,
    lv_plain: Option<&LiveRanges>,
    pool: &[Reg],
    callee: &[Reg],
    occupancy: &mut [[SliceOccupancy; 4]],
    hosts_bytes: &mut [bool; 16],
    locs: &mut [Loc],
    next_spill: &mut u32,
    used_callee: &mut [bool; 16],
) {
    let class = mir.classes[v];
    let segs = &lv.segs[v];
    let try_place = |segs: &Segments,
                     wt: bool,
                     occupancy: &mut [[SliceOccupancy; 4]],
                     hosts_bytes: &mut [bool; 16],
                     next_spill: &mut u32|
     -> Option<Loc> {
        match class {
            RegClass::Word => {
                for &r in pool {
                    if (0..4).all(|s| !occupancy[r.index()][s].conflicts(segs)) {
                        let loc = if wt {
                            let slot = *next_spill;
                            *next_spill += 1;
                            Loc::WriteThrough { reg: r, slot }
                        } else {
                            Loc::Reg(r)
                        };
                        for slice_occ in &mut occupancy[r.index()] {
                            slice_occ.insert(segs, v as u32);
                        }
                        return Some(loc);
                    }
                }
                None
            }
            RegClass::Byte => {
                for &r in pool {
                    for sl in 0..4u8 {
                        if occupancy[r.index()][sl as usize].conflicts(segs) {
                            continue;
                        }
                        let loc = if wt {
                            let slot = *next_spill;
                            *next_spill += 1;
                            Loc::WriteThroughSlice {
                                slice: isa::Slice::new(r, sl),
                                slot,
                            }
                        } else {
                            Loc::Slice(isa::Slice::new(r, sl))
                        };
                        occupancy[r.index()][sl as usize].insert(segs, v as u32);
                        hosts_bytes[r.index()] = true;
                        return Some(loc);
                    }
                }
                None
            }
        }
    };
    let placed = try_place(segs, false, occupancy, hosts_bytes, next_spill).or_else(|| {
        lv_plain.and_then(|p| {
            let psegs = &p.segs[v];
            if psegs.is_empty() || psegs == segs {
                None
            } else {
                try_place(psegs, true, occupancy, hosts_bytes, next_spill)
            }
        })
    });
    match placed {
        Some(loc) => {
            if let Loc::Reg(r)
            | Loc::WriteThrough { reg: r, .. }
            | Loc::Slice(isa::Slice { reg: r, .. })
            | Loc::WriteThroughSlice {
                slice: isa::Slice { reg: r, .. },
                ..
            } = loc
            {
                used_callee[r.index()] |= callee.contains(&r);
            }
            locs[v] = loc;
        }
        None => {
            locs[v] = Loc::Spill(*next_spill);
            *next_spill += 1;
        }
    }
}

/// Builds per-vreg segmented live ranges over the layout order.
/// `with_handler_edges` selects equation-2 semantics (region block →
/// handler) or plain branch liveness (the write-through fallback).
fn build_ranges(mir: &MirFunction, order: &[MBlockId], with_handler_edges: bool) -> LiveRanges {
    let n = mir.classes.len();
    let nb = mir.blocks.len();
    // Block-level liveness over vreg-indexed bit rows, solved by the
    // shared backward solver.
    let mut uevar: BitRows = BitRows::new(nb, n);
    let mut defs: BitRows = BitRows::new(nb, n);
    let mut def_side = vec![true; n];
    for b in mir.block_ids() {
        let bi = b.index();
        let spec_side = mir.block(b).spec_side;
        let upward = |uevar: &mut BitRows, defs: &BitRows, u: VReg| {
            if !defs.row(bi).contains(u.index()) {
                uevar.insert(bi, u.index());
            }
        };
        for i in &mir.block(b).insts {
            i.for_each_use(|u| upward(&mut uevar, &defs, u));
            i.for_each_def(|d| {
                defs.insert(bi, d.index());
                def_side[d.index()] = spec_side;
            });
        }
        mir.block(b)
            .term
            .for_each_use(|u| upward(&mut uevar, &defs, u));
    }
    let cfg = mir.cfg(with_handler_edges);
    let (live_in, live_out) = liveness::solve(&cfg, uevar, defs, BitRows::new(nb, n));
    // Per-block segments with intra-block precision: [first event, last
    // event], stretched to the block boundary on the live-in / live-out
    // side. Blocks are walked in layout order and each gives a vreg at most
    // one segment, so segments arrive sorted by start: pushing one either
    // extends the vreg's last segment (touching or overlapping) or appends.
    let mut segs: Vec<Segments> = vec![Vec::new(); n];
    let mut call_positions = Vec::new();
    let mut first_ev: Vec<u32> = vec![u32::MAX; n];
    let mut last_ev: Vec<u32> = vec![0; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut pos: u32 = 0;
    for &b in order {
        let bi = b.index();
        let bstart = pos;
        let mut touch = |v: VReg, p: u32| {
            let i = v.index();
            if first_ev[i] == u32::MAX {
                touched.push(i);
                first_ev[i] = p;
            }
            last_ev[i] = p + 1;
        };
        for inst in &mir.block(b).insts {
            pos += 1;
            if inst.is_call() {
                call_positions.push(pos);
            }
            inst.for_each_use(|u| touch(u, pos));
            inst.for_each_def(|d| touch(d, pos));
        }
        pos += 1; // terminator position
        mir.block(b).term.for_each_use(|u| touch(u, pos));
        let bend = pos + 1;
        let (lin, lout) = (live_in.row(bi), live_out.row(bi));
        // Emit a segment for every vreg live in this block.
        for vi in touched.drain(..) {
            let s = if lin.contains(vi) {
                bstart
            } else {
                first_ev[vi]
            };
            let e = if lout.contains(vi) { bend } else { last_ev[vi] };
            push_segment(&mut segs[vi], s, e.max(s + 1));
            first_ev[vi] = u32::MAX;
        }
        // Live-through values with no local event.
        for vi in lin.and(lout) {
            let already = segs[vi].last().is_some_and(|&(_, e)| e >= bend);
            if !already {
                push_segment(&mut segs[vi], bstart, bend);
            }
        }
        pos += 1;
    }
    LiveRanges {
        segs,
        def_side,
        call_positions,
    }
}

/// Whether some call position `c` lies inside a segment with `s < c < e`,
/// by binary search in the sorted `calls`. "Crossing" includes being *used
/// by* the call (`e == c + 1`): argument marshalling writes r0–r3, so
/// argument sources must live elsewhere. Return-value vregs (`s == c`) are
/// exempt.
fn crosses_call(segs: &Segments, calls: &[u32]) -> bool {
    segs.iter().any(|&(s, e)| {
        let i = calls.partition_point(|&c| c <= s);
        calls.get(i).is_some_and(|&c| c < e)
    })
}

/// Appends `[s, e)` to segments that all start before `s`, merging it into
/// the last one when they touch or overlap.
fn push_segment(segs: &mut Segments, s: u32, e: u32) {
    match segs.last_mut() {
        Some(last) if s <= last.1 => last.1 = last.1.max(e),
        _ => segs.push((s, e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp::Layout;

    fn alloc_for(src: &str, func: &str) -> AllocatedFn {
        let m = lang::compile("t", src).unwrap();
        let fid = m.func_by_name(func).unwrap();
        let layout = Layout::new(&m);
        let opts = CodegenOpts::default();
        let mir = crate::isel::select_function(&m, fid, &layout, &opts);
        allocate(mir, &opts)
    }

    #[test]
    fn small_function_spills_nothing() {
        let a = alloc_for("u32 f(u32 a, u32 b) { return a + b * 2; }", "f");
        assert_eq!(a.spill_slots, 0);
        for b in a.mir.block_ids() {
            for i in &a.mir.block(b).insts {
                let check = |v: VReg| {
                    assert_ne!(a.locs[v.index()], Loc::Spill(u32::MAX), "{v:?} unallocated");
                };
                i.for_each_use(check);
                i.for_each_def(check);
            }
        }
    }

    #[test]
    fn straightline_temps_reuse_registers() {
        // 30 short-lived temps in one block must not spill: sub-block
        // precision lets them share registers.
        let mut body = String::new();
        body.push_str("u32 s = 0;\n");
        for i in 0..30 {
            body.push_str(&format!("s = s + a * {};\n", i + 2));
        }
        body.push_str("return s;");
        let src = format!("u32 f(u32 a) {{ {body} }}");
        let a = alloc_for(&src, "f");
        assert_eq!(a.spill_slots, 0, "chained temps must reuse registers");
    }

    #[test]
    fn no_overlapping_assignments() {
        let src = "u32 f(u32 a, u32 b, u32 c, u32 d) {
            u32 e = a + b; u32 g = c + d; u32 h = a * c; u32 i = b * d;
            u32 j = e + g; u32 k = h + i;
            return j * k + e + g + h + i;
        }";
        let a = alloc_for(src, "f");
        let order = a.order.clone();
        let lv = super::build_ranges(&a.mir, &order, true);
        let overlap = |x: &Segments, y: &Segments| {
            x.iter()
                .any(|&(s1, e1)| y.iter().any(|&(s2, e2)| s1 < e2 && s2 < e1))
        };
        let n = a.mir.classes.len();
        for x in 0..n {
            for y in (x + 1)..n {
                if lv.segs[x].is_empty() || lv.segs[y].is_empty() {
                    continue;
                }
                if !overlap(&lv.segs[x], &lv.segs[y]) {
                    continue;
                }
                let conflict = match (a.locs[x], a.locs[y]) {
                    (Loc::Reg(r1), Loc::Reg(r2)) => r1 == r2,
                    (Loc::Reg(r), Loc::Slice(s)) | (Loc::Slice(s), Loc::Reg(r)) => s.reg == r,
                    (Loc::Slice(s1), Loc::Slice(s2)) => s1 == s2,
                    _ => false,
                };
                assert!(
                    !conflict,
                    "live-overlapping vregs v{x} and v{y} share {:?}",
                    a.locs[x]
                );
            }
        }
    }

    #[test]
    fn values_across_calls_use_callee_saved() {
        let src = "
            u32 g(u32 x) { return x + 1; }
            u32 f(u32 a) { u32 keep = a * 3; u32 r = g(a); return keep + r; }
        ";
        let a = alloc_for(src, "f");
        assert!(a.has_calls);
        assert!(
            !a.used_callee_saved.is_empty(),
            "value live across call needs callee-saved"
        );
    }

    #[test]
    fn high_pressure_spills() {
        let mut body = String::new();
        for i in 0..16 {
            body.push_str(&format!("u32 x{i} = a * {};\n", i + 3));
        }
        body.push_str("return ");
        for i in 0..16 {
            if i > 0 {
                body.push('+');
            }
            body.push_str(&format!("x{i}*x{i}"));
        }
        body.push(';');
        let src = format!("u32 f(u32 a) {{ {body} }}");
        let a = alloc_for(&src, "f");
        assert!(a.spill_slots > 0, "16 overlapping live words must spill");
    }

    #[test]
    fn layout_keeps_spec_segment_first() {
        let a = alloc_for("u32 f(u32 a) { return a + 1; }", "f");
        let mut seen_nonspec = false;
        for &b in &a.order {
            let spec = a.mir.block(b).spec_side;
            if !spec {
                seen_nonspec = true;
            }
            if spec {
                assert!(!seen_nonspec, "spec block after non-spec in layout");
            }
        }
    }

    /// Every vreg's segments are strictly increasing and pairwise disjoint,
    /// with a gap between neighbours (touching segments are merged) — the
    /// invariant extend-on-push relies on and `SliceOccupancy` assumes.
    #[test]
    fn segments_are_sorted_disjoint_and_merged() {
        let src = "
            u32 g(u32 x) { return x * 3; }
            u32 f(u32 n) {
                u32 s = 0; u32 k = 7;
                for (u32 i = 0; i < n; i++) {
                    if (i & 1) { s += g(i); } else { s ^= k; }
                    k = k + s;
                }
                return s + k;
            }
        ";
        let a = alloc_for(src, "f");
        for handler_edges in [true, false] {
            let lv = build_ranges(&a.mir, &a.order, handler_edges);
            assert!(lv.call_positions.windows(2).all(|w| w[0] < w[1]));
            let mut multi = 0;
            for (v, segs) in lv.segs.iter().enumerate() {
                assert!(
                    segs.iter().all(|&(s, e)| s < e),
                    "v{v}: empty segment {segs:?}"
                );
                assert!(
                    segs.windows(2).all(|w| w[0].1 < w[1].0),
                    "v{v}: segments not strictly increasing and disjoint: {segs:?}"
                );
                multi += usize::from(segs.len() > 1);
            }
            assert!(
                multi > 0,
                "the loop must leave some vreg with a lifetime hole"
            );
        }
    }

    #[test]
    fn push_segment_extends_touching_and_overlapping() {
        let mut segs: Segments = Vec::new();
        push_segment(&mut segs, 2, 5);
        push_segment(&mut segs, 5, 8);
        push_segment(&mut segs, 6, 7);
        push_segment(&mut segs, 10, 12);
        assert_eq!(segs, vec![(2, 8), (10, 12)]);
    }

    #[test]
    fn call_crossing_is_strictly_inside() {
        let calls = [10, 20];
        assert!(crosses_call(&vec![(5, 11)], &calls), "used by the call");
        assert!(
            !crosses_call(&vec![(10, 15)], &calls),
            "defined by the call"
        );
        assert!(
            !crosses_call(&vec![(11, 20)], &calls),
            "dies before the call"
        );
        assert!(crosses_call(&vec![(0, 3), (19, 30)], &calls));
        assert!(!crosses_call(&vec![(0, 10), (21, 30)], &calls));
    }

    #[test]
    fn slice_occupancy_conflicts() {
        let mut o = SliceOccupancy::default();
        o.insert(&vec![(10, 20), (30, 40)], 1);
        assert!(o.conflicts(&vec![(15, 17)]));
        assert!(o.conflicts(&vec![(5, 11)]));
        assert!(o.conflicts(&vec![(39, 50)]));
        assert!(!o.conflicts(&vec![(20, 30)]));
        assert!(!o.conflicts(&vec![(40, 100)]));
        assert!(!o.conflicts(&vec![(0, 10)]));
    }
}
