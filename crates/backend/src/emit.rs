//! Emission and linking: allocated MIR → a flat machine program.
//!
//! Implements the §3.3.4 code layout: per function, the speculative segment
//! (entry/prologue + all `CFG_spec` blocks) is laid out contiguously,
//! followed by a *skeleton segment* of exactly the same byte size whose
//! slot at offset `o` holds a branch to the handler of the region whose
//! instruction sits at spec-segment offset `o` (NOP where the mirrored
//! instruction cannot misspeculate). The prologue writes `Δ` (the spec
//! segment size) into the misspeculation displacement register; on
//! misspeculation the hardware jumps to `pc + Δ`, landing on the skeleton
//! branch. `CFG_orig` and the handlers follow the skeleton segment.
//!
//! Pseudos (calls, parameters, frame addresses, spills) are expanded here,
//! with parallel-move sequencing where physical registers could clash.

use crate::isel::CodegenOpts;
use crate::mir::{MBlockId, MOperand, MirInst, MirTerm, SMOperand, VReg};
use crate::regalloc::{AllocatedFn, Loc};
use interp::Layout;
use isa::{AluOp, MInst, MemWidth, Operand, Reg, Slice, SliceOperand, LR, SP};
use sir::Module;
use std::collections::HashMap;

/// A linked machine program ready for simulation.
#[derive(Debug, Clone)]
pub struct Program {
    /// The flat instruction image.
    pub insts: Vec<MInst>,
    /// Byte address of each instruction.
    pub addrs: Vec<u32>,
    /// Entry index (start of `main`).
    pub entry: usize,
    /// Index of the final `Halt` (initial link-register target).
    pub halt: usize,
    /// Per-function entry indices and names (diagnostics).
    pub func_entries: Vec<usize>,
    pub func_names: Vec<String>,
    /// Initial memory contents: (address, bytes) for global initializers.
    pub global_inits: Vec<(u32, Vec<u8>)>,
    /// Memory image size expected by the simulator.
    pub mem_size: u32,
    /// Compact (Thumb-like) encoding in effect.
    pub compact: bool,
    /// addr → instruction index (for `pc + Δ` resolution).
    pub addr_index: HashMap<u32, usize>,
    /// Misspeculation cover table: `(spec, branch, handler)` instruction
    /// indices — the misspeculation-capable instruction, its mirrored
    /// skeleton branch at `+Δ`, and the handler entry that branch targets.
    /// Recorded during skeleton emission and checked by [`verify_layout`].
    pub spec_targets: Vec<(usize, usize, usize)>,
    /// Predecoded per-instruction side table (parallel to `insts`): the
    /// static facts the turbo simulator's predecode and per-instruction
    /// fallback read, computed once at link time so the run loop touches
    /// no `MInst` payload for fetch/interlock bookkeeping.
    pub pre: Vec<PreInst>,
}

/// Predecoded static facts about one linked instruction (see
/// [`Program::pre`]). Everything here is derivable from the `MInst` and
/// the encoding mode; the simulator reads this instead of re-deriving it
/// (and re-allocating) on every dynamic step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreInst {
    /// Read-register bitmask for the load-use interlock
    /// ([`MInst::interlock_read_mask`]).
    pub read_mask: u32,
    /// Destination mask when this is an interlocking word load
    /// ([`MInst::load_dest_mask`]).
    pub load_dest_mask: u32,
    /// Encoded size in bytes under the program's encoding mode.
    pub size: u32,
    /// I-fetch slots this instruction issues (`size.div_ceil(4).max(1)`).
    pub slots: u8,
    /// Whether a second fetch (at `addr + 4`) is required (`size > 4`).
    pub two_slot: bool,
}

impl PreInst {
    /// Predecodes `inst` under the given encoding mode.
    pub fn of(inst: &MInst, compact: bool) -> PreInst {
        let size = inst.size(compact);
        PreInst {
            read_mask: inst.interlock_read_mask(),
            load_dest_mask: inst.load_dest_mask(),
            size,
            slots: size.div_ceil(4).max(1) as u8,
            two_slot: size > 4,
        }
    }
}

impl Program {
    /// Total static code size in bytes.
    pub fn code_bytes(&self) -> u32 {
        self.insts.iter().map(|i| i.size(self.compact)).sum()
    }

    /// Static instruction count (excluding skeleton NOP padding).
    pub fn static_insts(&self) -> usize {
        self.insts
            .iter()
            .filter(|i| !matches!(i, MInst::Nop))
            .count()
    }
}

/// Default memory image size (matches the interpreter).
pub const MEM_SIZE: u32 = 8 << 20;

/// One branch-target fixup, *function-relative*: the slot index is within
/// the owning function's own code, and the target is either a block of the
/// same function or a symbolic callee. [`link_codes`] globalizes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FnFixup {
    Block(MBlockId),
    Func(sir::FuncId),
}

/// Position-independent emitted code for one function: the per-function
/// share of the `emit` pass, before the serial layout/link pass. Every
/// index is function-relative and callee references stay symbolic
/// ([`FnFixup::Func`]), so a `FnCode` depends only on the function's own
/// allocated MIR and the codegen options — never on its neighbours or its
/// final base address. That is what makes it cacheable by function content.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FnCode {
    /// Function name (diagnostics; becomes `Program::func_names[fi]`).
    pub name: String,
    /// The function's instructions, branch targets unresolved (0) where a
    /// fixup is recorded.
    pub insts: Vec<MInst>,
    /// Branch-slot fixups to resolve at link time.
    pub fixups: Vec<(usize, FnFixup)>,
    /// Block → first-instruction slot (function-relative).
    pub block_starts: Vec<(MBlockId, usize)>,
    /// `(spec slot, skeleton branch slot, handler block)` cover triples;
    /// globalized by [`link_codes`] into [`Program::spec_targets`].
    pub spec_pairs: Vec<(usize, usize, MBlockId)>,
}

/// Emits one allocated function to position-independent [`FnCode`]. The
/// Δ-skeleton layout (spec segment, mirrored skeleton, `SetDelta` patch) is
/// entirely intra-function, so this is the whole `emit` pass except the
/// final concatenation + fixup resolution of [`link_codes`].
pub fn emit_function(af: &AllocatedFn, opts: &CodegenOpts) -> FnCode {
    FnEmitter::new(af, opts).emit()
}

/// Links allocated functions into a program image: per-function emission
/// followed by the serial layout pass over the per-function code.
pub fn link(m: &Module, funcs: Vec<AllocatedFn>, opts: &CodegenOpts, layout: &Layout) -> Program {
    let codes: Vec<FnCode> = funcs.iter().map(|af| emit_function(af, opts)).collect();
    let refs: Vec<&FnCode> = codes.iter().collect();
    link_codes(m, &refs, opts, layout)
}

/// The serial layout/link pass: concatenates per-function code in function
/// order, resolves block/callee fixups against the global image, assigns
/// addresses, and derives the simulator side tables. This is the only
/// cross-function step of the back-end — given the same `codes` in the
/// same order it is a pure function of its inputs, which is what makes
/// parallel per-function compilation bit-identical to serial.
pub fn link_codes(m: &Module, codes: &[&FnCode], opts: &CodegenOpts, layout: &Layout) -> Program {
    let mut insts: Vec<MInst> = Vec::new();
    let mut fixups: Vec<(usize, usize, FnFixup)> = Vec::new();
    let mut func_entries = Vec::with_capacity(codes.len());
    let mut block_index: Vec<HashMap<MBlockId, usize>> = Vec::with_capacity(codes.len());
    let mut spec_targets: Vec<(usize, usize, usize)> = Vec::new();

    for (fi, code) in codes.iter().enumerate() {
        let base = insts.len();
        func_entries.push(base);
        for (slot, f) in &code.fixups {
            fixups.push((base + slot, fi, *f));
        }
        block_index.push(
            code.block_starts
                .iter()
                .map(|&(b, i)| (b, base + i))
                .collect(),
        );
        let bi = block_index.last().expect("just pushed");
        for &(spec, branch, handler) in &code.spec_pairs {
            spec_targets.push((base + spec, base + branch, bi[&handler]));
        }
        insts.extend(code.insts.iter().cloned());
    }
    // Halt stub.
    let halt = insts.len();
    insts.push(MInst::Halt);
    // Resolve fixups.
    for (slot, fi, f) in fixups {
        let target = match f {
            FnFixup::Block(b) => block_index[fi][&b],
            FnFixup::Func(fid) => func_entries[fid.index()],
        };
        match &mut insts[slot] {
            MInst::B { target: t } | MInst::Bc { target: t, .. } | MInst::Bl { target: t } => {
                *t = target;
            }
            other => panic!("fixup on non-branch {other:?}"),
        }
    }
    // Addresses.
    let mut addrs = Vec::with_capacity(insts.len());
    let mut addr = 0u32;
    for i in &insts {
        addrs.push(addr);
        addr += i.size(opts.compact);
    }
    let addr_index = addrs.iter().enumerate().map(|(i, a)| (*a, i)).collect();
    let entry = m
        .func_by_name("main")
        .map(|f| func_entries[f.index()])
        .unwrap_or(0);
    let global_inits = m
        .globals
        .iter()
        .enumerate()
        .filter(|(_, g)| !g.init.is_empty())
        .map(|(i, g)| (layout.addr(sir::GlobalId(i as u32)), g.init.clone()))
        .collect();
    let pre = insts.iter().map(|i| PreInst::of(i, opts.compact)).collect();
    Program {
        insts,
        addrs,
        entry,
        halt,
        func_entries,
        func_names: codes.iter().map(|c| c.name.clone()).collect(),
        global_inits,
        mem_size: MEM_SIZE,
        compact: opts.compact,
        addr_index,
        spec_targets,
        pre,
    }
}

/// Pass name for layout diagnostics.
pub const VERIFY_PASS: &str = "emit-verify";

/// Checks the §3.3.4 Δ-skeleton layout of a linked program: every
/// misspeculation-capable instruction must land, at `pc + Δ`, on an
/// instruction boundary (`EMIT-GRID`) holding its recorded skeleton branch
/// to its handler's entry (`EMIT-DELTA`), and no misspeculation-capable
/// instruction may lack a cover entry altogether (`EMIT-UNCOVERED`).
pub fn verify_layout(p: &Program) -> Vec<sir::Diag> {
    let mut problems = Vec::new();
    let func_of = |idx: usize| -> (usize, &str) {
        let fi = p
            .func_entries
            .partition_point(|&e| e <= idx)
            .saturating_sub(1);
        (fi, p.func_names.get(fi).map_or("?", |n| n.as_str()))
    };
    // Δ in effect at an instruction: the nearest preceding SetDelta within
    // the same function (after patching they all carry the same value).
    let delta_at = |idx: usize| -> Option<u32> {
        let (fi, _) = func_of(idx);
        let start = p.func_entries[fi];
        (start..=idx).rev().find_map(|i| match p.insts[i] {
            MInst::SetDelta { bytes } => Some(bytes),
            _ => None,
        })
    };
    let diag = |rule: &'static str, idx: usize, msg: String| {
        let (_, name) = func_of(idx);
        sir::Diag::new(rule, VERIFY_PASS, name, format!("#{idx}"), msg)
    };
    for &(spec, branch, handler) in &p.spec_targets {
        if !p.insts[spec].can_misspeculate() {
            problems.push(diag(
                "EMIT-DELTA",
                spec,
                "cover entry on a non-misspeculating instruction".into(),
            ));
            continue;
        }
        let Some(delta) = delta_at(spec) else {
            problems.push(diag(
                "EMIT-DELTA",
                spec,
                "no SetDelta precedes a misspeculation-capable instruction".into(),
            ));
            continue;
        };
        let land = p.addrs[spec] + delta;
        let Some(&landed) = p.addr_index.get(&land) else {
            problems.push(diag(
                "EMIT-GRID",
                spec,
                format!("pc+Δ = {land:#x} is not an instruction boundary"),
            ));
            continue;
        };
        if landed != branch {
            problems.push(diag(
                "EMIT-DELTA",
                spec,
                format!("pc+Δ lands on #{landed}, not the skeleton branch #{branch}"),
            ));
            continue;
        }
        match p.insts[branch] {
            MInst::B { target } if target == handler => {}
            MInst::B { target } => problems.push(diag(
                "EMIT-DELTA",
                branch,
                format!("skeleton branch targets #{target}, want handler #{handler}"),
            )),
            ref other => problems.push(diag(
                "EMIT-DELTA",
                branch,
                format!("skeleton slot holds {other:?}, want a branch to #{handler}"),
            )),
        }
    }
    let covered: std::collections::HashSet<usize> =
        p.spec_targets.iter().map(|&(s, _, _)| s).collect();
    for (i, inst) in p.insts.iter().enumerate() {
        if inst.can_misspeculate() && !covered.contains(&i) {
            problems.push(diag(
                "EMIT-UNCOVERED",
                i,
                "misspeculation-capable instruction without a skeleton cover entry".into(),
            ));
        }
    }
    problems
}

struct FnEmitter<'a> {
    af: &'a AllocatedFn,
    opts: &'a CodegenOpts,
    out: Vec<MInst>,
    fixups: Vec<(usize, FnFixup)>,
    block_starts: Vec<(MBlockId, usize)>,
    /// Handler (region) mirrored for each emitted spec-segment slot.
    spec_slots: Vec<Option<MBlockId>>,
    /// `(spec slot, skeleton branch slot, handler block)` cover triples,
    /// function-relative; globalized by [`link_codes`] into
    /// [`Program::spec_targets`].
    spec_pairs: Vec<(usize, usize, MBlockId)>,
    /// Index of SetDelta instructions to patch with Δ.
    delta_slots: Vec<usize>,
    frame: FrameInfo,
    /// Whether the block being emitted is on the speculative side (decides
    /// whether write-through values read their register or their slot).
    cur_spec_side: bool,
}

#[derive(Debug, Clone, Copy)]
struct FrameInfo {
    out_bytes: u32,
    spill_bytes: u32,
    alloca_bytes: u32,
    push_bytes: u32,
}

impl FrameInfo {
    fn frame_bytes(&self) -> u32 {
        self.out_bytes + self.spill_bytes + self.alloca_bytes
    }
}

impl<'a> FnEmitter<'a> {
    fn new(af: &'a AllocatedFn, opts: &'a CodegenOpts) -> Self {
        let out_words = af
            .mir
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i {
                MirInst::Call { args, .. } => Some(args.len().saturating_sub(4) as u32),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let alloca_bytes: u32 = af.mir.alloca_sizes.iter().map(|s| (s + 3) & !3).sum();
        let push_count = af.af_push_regs().len() as u32;
        let frame = FrameInfo {
            out_bytes: out_words * 4,
            spill_bytes: af.spill_slots * 4,
            alloca_bytes,
            push_bytes: push_count * 4,
        };
        FnEmitter {
            af,
            opts,
            out: Vec::new(),
            fixups: Vec::new(),
            block_starts: Vec::new(),
            spec_slots: Vec::new(),
            spec_pairs: Vec::new(),
            delta_slots: Vec::new(),
            frame,
            cur_spec_side: true,
        }
    }

    fn loc(&self, v: VReg) -> Loc {
        self.af.locs[v.index()]
    }

    /// Location with write-through normalized for *read-only* contexts:
    /// on the spec side the register is authoritative, elsewhere the slot.
    fn loc_read(&self, v: VReg) -> Loc {
        match self.af.locs[v.index()] {
            Loc::WriteThrough { reg, slot } => {
                if self.cur_spec_side {
                    Loc::Reg(reg)
                } else {
                    Loc::Spill(slot)
                }
            }
            Loc::WriteThroughSlice { slice, slot } => {
                if self.cur_spec_side {
                    Loc::Slice(slice)
                } else {
                    Loc::Spill(slot)
                }
            }
            l => l,
        }
    }

    fn spill_off(&self, slot: u32) -> i32 {
        (self.frame.out_bytes + slot * 4) as i32
    }

    fn alloca_off(&self, id: u32) -> i32 {
        let mut off = self.frame.out_bytes + self.frame.spill_bytes;
        for (i, s) in self.af.mir.alloca_sizes.iter().enumerate() {
            if i as u32 == id {
                break;
            }
            off += (s + 3) & !3;
        }
        off as i32
    }

    fn push(&mut self, i: MInst) {
        self.out.push(i);
    }

    fn emit(mut self) -> FnCode {
        let order = self.af.order.clone();
        let has_regions = !self.af.mir.regions.is_empty();
        let spec_count = order
            .iter()
            .take_while(|b| self.af.mir.block(**b).spec_side)
            .count();
        // --- spec segment (entry/prologue + CFG_spec) ----------------------
        for (oi, &b) in order.iter().enumerate().take(spec_count) {
            self.begin_block(b, oi, &order, true);
        }
        // --- skeleton segment ----------------------------------------------
        let spec_bytes: u32 = self.out.iter().map(|i| i.size(self.opts.compact)).sum();
        if has_regions {
            let mirrored: Vec<(Option<MBlockId>, u32)> = self
                .out
                .iter()
                .zip(&self.spec_slots)
                .map(|(i, h)| (*h, i.size(self.opts.compact)))
                .collect();
            for (spec_slot, (handler, size)) in mirrored.into_iter().enumerate() {
                match handler {
                    Some(h) => {
                        let slot = self.out.len();
                        self.push(MInst::B { target: 0 });
                        self.fixups.push((slot, FnFixup::Block(h)));
                        self.spec_pairs.push((spec_slot, slot, h));
                    }
                    None => {
                        // Mirror the byte footprint with NOP slots.
                        let unit = if self.opts.compact { 2 } else { 4 };
                        for _ in 0..(size / unit) {
                            self.push(MInst::Nop);
                        }
                    }
                }
            }
            for &slot in &self.delta_slots.clone() {
                if let MInst::SetDelta { bytes } = &mut self.out[slot] {
                    *bytes = spec_bytes;
                }
            }
        }
        // --- CFG_orig and handlers ------------------------------------------
        for (oi, &b) in order.iter().enumerate().skip(spec_count) {
            self.begin_block(b, oi, &order, false);
        }
        FnCode {
            name: self.af.mir.name.clone(),
            insts: self.out,
            fixups: self.fixups,
            block_starts: self.block_starts,
            spec_pairs: self.spec_pairs,
        }
    }

    fn begin_block(&mut self, b: MBlockId, oi: usize, order: &[MBlockId], in_spec: bool) {
        self.cur_spec_side = self.af.mir.block(b).spec_side;
        self.block_starts.push((b, self.out.len()));
        let before_block = self.out.len();
        let is_entry = b == self.af.mir.entry;
        if is_entry {
            self.emit_prologue();
        }
        // In-region handler label for skeleton mirroring.
        let handler = self
            .af
            .mir
            .block(b)
            .region
            .map(|r| self.af.mir.regions[r as usize].1);
        let mut param_run: Vec<(VReg, u32)> = Vec::new();
        let insts = self.af.mir.block(b).insts.clone();
        for inst in insts {
            if let MirInst::GetParam { rd, slot } = inst {
                param_run.push((rd, slot));
                continue;
            }
            if !param_run.is_empty() {
                self.flush_params(&std::mem::take(&mut param_run));
            }
            self.emit_inst(&inst);
        }
        if !param_run.is_empty() {
            self.flush_params(&std::mem::take(&mut param_run));
        }
        // Terminator.
        match self.af.mir.block(b).term.clone() {
            MirTerm::Br(t) => {
                // Fallthrough elision — only within the same segment (the
                // skeleton sits between the spec and non-spec segments).
                let next = order.get(oi + 1).copied();
                let next_in_same_seg =
                    next.map(|n| self.af.mir.block(n).spec_side == in_spec) == Some(true);
                if next == Some(t) && next_in_same_seg {
                    // fallthrough
                } else {
                    let slot = self.out.len();
                    self.push(MInst::B { target: 0 });
                    self.fixups.push((slot, FnFixup::Block(t)));
                }
            }
            MirTerm::Bc {
                cond,
                if_true,
                if_false,
            } => {
                let slot = self.out.len();
                self.push(MInst::Bc { cond, target: 0 });
                self.fixups.push((slot, FnFixup::Block(if_true)));
                let next = order.get(oi + 1).copied();
                if next == Some(if_false)
                    && next.map(|n| self.af.mir.block(n).spec_side == in_spec) == Some(true)
                {
                    // fallthrough
                } else {
                    let slot = self.out.len();
                    self.push(MInst::B { target: 0 });
                    self.fixups.push((slot, FnFixup::Block(if_false)));
                }
            }
            MirTerm::Ret(vals) => self.emit_epilogue(&vals),
        }
        // Record skeleton mirroring for everything this block emitted.
        if in_spec {
            let emitted = self.out.len() - before_block;
            let start = self.out.len() - emitted;
            for idx in start..self.out.len() {
                let h = if self.out[idx].can_misspeculate() {
                    handler
                } else {
                    None
                };
                self.spec_slots.push(h);
            }
        }
        debug_assert!(!in_spec || self.spec_slots.len() == self.out.len());
    }

    fn emit_prologue(&mut self) {
        let pushes = self.af.af_push_regs();
        if !pushes.is_empty() {
            self.push(MInst::Push { regs: pushes });
        }
        let fb = self.frame.frame_bytes();
        if fb > 0 {
            self.emit_sp_adjust(-(fb as i32));
        }
        if !self.af.mir.regions.is_empty() {
            let slot = self.out.len();
            self.push(MInst::SetDelta { bytes: 0 });
            self.delta_slots.push(slot);
        }
    }

    fn emit_epilogue(&mut self, vals: &[VReg]) {
        // Move return values into r0/r1 with clash-free ordering.
        let dsts: Vec<Reg> = (0..vals.len() as u8).map(Reg).collect();
        let mut moves: Vec<(Reg, Reg)> = Vec::new();
        for (v, d) in vals.iter().zip(&dsts) {
            match self.loc_read(*v) {
                Loc::Reg(r) => {
                    if r != *d {
                        moves.push((*d, r));
                    }
                }
                Loc::Spill(slot) => {
                    let off = self.spill_off(slot);
                    self.push(MInst::Load {
                        rd: *d,
                        rn: SP,
                        offset: off,
                        width: MemWidth::W,
                        spill: true,
                    });
                }
                Loc::Slice(_) | Loc::WriteThrough { .. } | Loc::WriteThroughSlice { .. } => {
                    panic!("unexpected return-value location")
                }
            }
        }
        self.emit_parallel_moves(&moves);
        let fb = self.frame.frame_bytes();
        if fb > 0 {
            self.emit_sp_adjust(fb as i32);
        }
        let pushes = self.af.af_push_regs();
        if !pushes.is_empty() {
            self.push(MInst::Pop { regs: pushes });
        }
        self.push(MInst::Ret);
    }

    fn emit_sp_adjust(&mut self, delta: i32) {
        let (op, amt) = if delta < 0 {
            (AluOp::Sub, (-delta) as u32)
        } else {
            (AluOp::Add, delta as u32)
        };
        if amt <= 4095 {
            self.push(MInst::Alu {
                op,
                rd: SP,
                rn: SP,
                src2: Operand::Imm(amt),
            });
        } else {
            self.push(MInst::MovImm {
                rd: Reg(12),
                imm: amt,
            });
            self.push(MInst::Alu {
                op,
                rd: SP,
                rn: SP,
                src2: Operand::Reg(Reg(12)),
            });
        }
    }

    /// Clash-free register-to-register move sequencing (r12 breaks cycles).
    fn emit_parallel_moves(&mut self, moves: &[(Reg, Reg)]) {
        let mut pending: Vec<(Reg, Reg)> = moves.iter().copied().filter(|(d, s)| d != s).collect();
        while !pending.is_empty() {
            let ready: Vec<usize> = (0..pending.len())
                .filter(|&i| !pending.iter().any(|(_, s)| *s == pending[i].0))
                .collect();
            if ready.is_empty() {
                let (d, s) = pending[0];
                self.push(MInst::Mov { rd: Reg(12), rm: s });
                pending[0] = (d, Reg(12));
                continue;
            }
            for &i in ready.iter().rev() {
                let (d, s) = pending.remove(i);
                self.push(MInst::Mov { rd: d, rm: s });
            }
        }
    }

    /// Expands a run of `GetParam` pseudos at function entry.
    fn flush_params(&mut self, run: &[(VReg, u32)]) {
        // Stack-slot params load directly; register params need ordered
        // moves (a destination may be another source's register).
        let mut reg_moves: Vec<(Reg, Reg)> = Vec::new();
        let mut wt_stores: Vec<(Reg, i32)> = Vec::new();
        for &(rd, slot) in run {
            let incoming_off =
                (self.frame.frame_bytes() + self.frame.push_bytes) as i32 + ((slot as i32) - 4) * 4;
            match self.loc(rd) {
                Loc::Reg(r) => {
                    if slot < 4 {
                        reg_moves.push((r, Reg(slot as u8)));
                    } else {
                        self.push(MInst::Load {
                            rd: r,
                            rn: SP,
                            offset: incoming_off,
                            width: MemWidth::W,
                            spill: false,
                        });
                    }
                }
                Loc::WriteThrough { reg, slot: sl } => {
                    // Register copy plus home-slot initialization (the
                    // store is deferred until after the ordered moves).
                    if slot < 4 {
                        reg_moves.push((reg, Reg(slot as u8)));
                    } else {
                        self.push(MInst::Load {
                            rd: reg,
                            rn: SP,
                            offset: incoming_off,
                            width: MemWidth::W,
                            spill: false,
                        });
                    }
                    wt_stores.push((reg, self.spill_off(sl)));
                }
                Loc::Spill(sl) => {
                    let off = self.spill_off(sl);
                    if slot < 4 {
                        self.push(MInst::Store {
                            rs: Reg(slot as u8),
                            rn: SP,
                            offset: off,
                            width: MemWidth::W,
                            spill: true,
                        });
                    } else {
                        self.push(MInst::Load {
                            rd: Reg(12),
                            rn: SP,
                            offset: incoming_off,
                            width: MemWidth::W,
                            spill: false,
                        });
                        self.push(MInst::Store {
                            rs: Reg(12),
                            rn: SP,
                            offset: off,
                            width: MemWidth::W,
                            spill: true,
                        });
                    }
                }
                Loc::Slice(_) | Loc::WriteThroughSlice { .. } => {
                    panic!("byte param read directly")
                }
            }
        }
        self.emit_parallel_moves(&reg_moves);
        for (reg, off) in wt_stores {
            self.push(MInst::Store {
                rs: reg,
                rn: SP,
                offset: off,
                width: MemWidth::W,
                spill: true,
            });
        }
    }

    // ---- operand materialization -------------------------------------------

    /// Reads a word vreg into a physical register, reloading spills into a
    /// scratch from the given pool position.
    fn read_word(&mut self, v: VReg, scratch: &mut Scratch) -> Reg {
        match self.loc(v) {
            Loc::Reg(r) => r,
            Loc::WriteThrough { reg, slot } => {
                if self.cur_spec_side {
                    reg
                } else {
                    // Cold side (handlers / CFG_orig): the register is not
                    // guaranteed; read the write-through home.
                    let r = scratch.word();
                    let off = self.spill_off(slot);
                    self.push(MInst::Load {
                        rd: r,
                        rn: SP,
                        offset: off,
                        width: MemWidth::W,
                        spill: true,
                    });
                    r
                }
            }
            Loc::Spill(slot) => {
                let r = scratch.word();
                let off = self.spill_off(slot);
                self.push(MInst::Load {
                    rd: r,
                    rn: SP,
                    offset: off,
                    width: MemWidth::W,
                    spill: true,
                });
                r
            }
            Loc::Slice(s) | Loc::WriteThroughSlice { slice: s, .. } => {
                panic!("word vreg {v:?} assigned slice {s}")
            }
        }
    }

    fn read_byte(&mut self, v: VReg, scratch: &mut Scratch) -> Slice {
        match self.loc(v) {
            Loc::Slice(s) => s,
            Loc::WriteThroughSlice { slice, slot } => {
                if self.cur_spec_side {
                    slice
                } else {
                    let r = scratch.word();
                    let off = self.spill_off(slot);
                    self.push(MInst::Load {
                        rd: r,
                        rn: SP,
                        offset: off,
                        width: MemWidth::B,
                        spill: true,
                    });
                    Slice::new(r, 0)
                }
            }
            Loc::Spill(slot) => {
                let r = scratch.word();
                let off = self.spill_off(slot);
                self.push(MInst::Load {
                    rd: r,
                    rn: SP,
                    offset: off,
                    width: MemWidth::B,
                    spill: true,
                });
                Slice::new(r, 0)
            }
            Loc::Reg(r) | Loc::WriteThrough { reg: r, .. } => {
                panic!("byte vreg {v:?} assigned word {r}")
            }
        }
    }

    /// Destination for a word def; returns (reg, spill-writeback slot).
    fn write_word(&mut self, v: VReg, scratch: &mut Scratch) -> (Reg, Option<i32>) {
        match self.loc(v) {
            Loc::Reg(r) => (r, None),
            Loc::WriteThrough { reg, slot } => {
                if self.cur_spec_side {
                    // Keep the register AND write the home slot.
                    (reg, Some(self.spill_off(slot)))
                } else {
                    (scratch.word_for_write(), Some(self.spill_off(slot)))
                }
            }
            Loc::Spill(slot) => (scratch.word_for_write(), Some(self.spill_off(slot))),
            Loc::Slice(s) | Loc::WriteThroughSlice { slice: s, .. } => {
                panic!("word def {v:?} assigned slice {s}")
            }
        }
    }

    fn write_byte(&mut self, v: VReg, scratch: &mut Scratch) -> (Slice, Option<i32>) {
        match self.loc(v) {
            Loc::Slice(s) => (s, None),
            Loc::WriteThroughSlice { slice, slot } => {
                if self.cur_spec_side {
                    (slice, Some(self.spill_off(slot)))
                } else {
                    (
                        Slice::new(scratch.word_for_write(), 0),
                        Some(self.spill_off(slot)),
                    )
                }
            }
            Loc::Spill(slot) => (
                Slice::new(scratch.word_for_write(), 0),
                Some(self.spill_off(slot)),
            ),
            Loc::Reg(r) | Loc::WriteThrough { reg: r, .. } => {
                panic!("byte def {v:?} assigned word {r}")
            }
        }
    }

    fn writeback_word(&mut self, r: Reg, off: Option<i32>) {
        if let Some(off) = off {
            self.push(MInst::Store {
                rs: r,
                rn: SP,
                offset: off,
                width: MemWidth::W,
                spill: true,
            });
        }
    }

    fn writeback_byte(&mut self, s: Slice, off: Option<i32>) {
        if let Some(off) = off {
            self.push(MInst::SStore {
                bs: s,
                rn: SP,
                offset: off,
                spill: true,
            });
        }
    }

    fn word_operand(&mut self, o: &MOperand, scratch: &mut Scratch) -> Operand {
        match o {
            MOperand::Imm(i) => Operand::Imm(*i),
            MOperand::VReg(v) => Operand::Reg(self.read_word(*v, scratch)),
        }
    }

    fn byte_operand(&mut self, o: &SMOperand, scratch: &mut Scratch) -> SliceOperand {
        match o {
            SMOperand::Imm(i) => SliceOperand::Imm(*i),
            SMOperand::VReg(v) => SliceOperand::Slice(self.read_byte(*v, scratch)),
        }
    }

    // ---- instruction expansion ----------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn emit_inst(&mut self, inst: &MirInst) {
        let mut sc = Scratch::new();
        match inst {
            MirInst::Alu { op, rd, rn, src2 } => {
                let rn = self.read_word(*rn, &mut sc);
                let src2 = self.word_operand(src2, &mut sc);
                let (rd, wb) = self.write_word(*rd, &mut sc);
                self.emit_alu(*op, rd, rn, src2);
                self.writeback_word(rd, wb);
            }
            MirInst::MovImm { rd, imm } => {
                let (rd, wb) = self.write_word(*rd, &mut sc);
                self.push(MInst::MovImm { rd, imm: *imm });
                self.writeback_word(rd, wb);
            }
            MirInst::Mov { rd, rm } => {
                let rm = self.read_word(*rm, &mut sc);
                let (rd, wb) = self.write_word(*rd, &mut sc);
                if rd != rm {
                    self.push(MInst::Mov { rd, rm });
                } else if wb.is_none() {
                    return; // coalesced
                }
                self.writeback_word(rd, wb);
            }
            MirInst::MovCc { rd, rm, cond } => {
                let rm = self.read_word(*rm, &mut sc);
                // MovCc conditionally writes rd: rd must hold its previous
                // value, so a spilled destination needs reload-modify-store.
                match self.loc(*rd) {
                    Loc::Reg(r) => self.push(MInst::MovCc {
                        rd: r,
                        rm,
                        cond: *cond,
                    }),
                    Loc::WriteThrough { reg, slot } if self.cur_spec_side => {
                        self.push(MInst::MovCc {
                            rd: reg,
                            rm,
                            cond: *cond,
                        });
                        let off = self.spill_off(slot);
                        self.push(MInst::Store {
                            rs: reg,
                            rn: SP,
                            offset: off,
                            width: MemWidth::W,
                            spill: true,
                        });
                    }
                    Loc::WriteThrough { slot, .. } => {
                        // Cold side: reload-modify-store through the slot.
                        let off = self.spill_off(slot);
                        let r = sc.word();
                        self.push(MInst::Load {
                            rd: r,
                            rn: SP,
                            offset: off,
                            width: MemWidth::W,
                            spill: true,
                        });
                        self.push(MInst::MovCc {
                            rd: r,
                            rm,
                            cond: *cond,
                        });
                        self.push(MInst::Store {
                            rs: r,
                            rn: SP,
                            offset: off,
                            width: MemWidth::W,
                            spill: true,
                        });
                    }
                    Loc::Spill(slot) => {
                        let off = self.spill_off(slot);
                        let r = sc.word();
                        self.push(MInst::Load {
                            rd: r,
                            rn: SP,
                            offset: off,
                            width: MemWidth::W,
                            spill: true,
                        });
                        self.push(MInst::MovCc {
                            rd: r,
                            rm,
                            cond: *cond,
                        });
                        self.push(MInst::Store {
                            rs: r,
                            rn: SP,
                            offset: off,
                            width: MemWidth::W,
                            spill: true,
                        });
                    }
                    Loc::Slice(_) | Loc::WriteThroughSlice { .. } => panic!("byte MovCc"),
                }
            }
            MirInst::Cmp { rn, src2 } => {
                let rn = self.read_word(*rn, &mut sc);
                let src2 = self.word_operand(src2, &mut sc);
                self.push(MInst::Cmp { rn, src2 });
            }
            MirInst::CSet { rd, cond } => {
                let (rd, wb) = self.write_word(*rd, &mut sc);
                self.push(MInst::CSet { rd, cond: *cond });
                self.writeback_word(rd, wb);
            }
            MirInst::Extend {
                rd,
                rm,
                from,
                signed,
            } => {
                let rm = self.read_word(*rm, &mut sc);
                let (rd, wb) = self.write_word(*rd, &mut sc);
                self.push(MInst::Extend {
                    rd,
                    rm,
                    from: *from,
                    signed: *signed,
                });
                self.writeback_word(rd, wb);
            }
            MirInst::Umull { rdlo, rdhi, rn, rm } => {
                let rn = self.read_word(*rn, &mut sc);
                let rm = self.read_word(*rm, &mut sc);
                let (lo, wlo) = self.write_word(*rdlo, &mut sc);
                let (hi, whi) = self.write_word(*rdhi, &mut sc);
                self.push(MInst::Umull {
                    rdlo: lo,
                    rdhi: hi,
                    rn,
                    rm,
                });
                self.writeback_word(lo, wlo);
                self.writeback_word(hi, whi);
            }
            MirInst::LoadIdx {
                rd,
                rn,
                bidx,
                shift,
                width,
            } => {
                let rn = self.read_word(*rn, &mut sc);
                let bidx = self.read_byte(*bidx, &mut sc);
                let (rd, wb) = self.write_word(*rd, &mut sc);
                self.push(MInst::LoadIdx {
                    rd,
                    rn,
                    bidx,
                    shift: *shift,
                    width: *width,
                });
                self.writeback_word(rd, wb);
            }
            MirInst::SLoadIdx {
                bd,
                rn,
                bidx,
                shift,
                speculative,
            } => {
                let rn = self.read_word(*rn, &mut sc);
                let bidx = self.read_byte(*bidx, &mut sc);
                let (bd, wb) = self.write_byte(*bd, &mut sc);
                self.push(MInst::SLoadIdx {
                    bd,
                    rn,
                    bidx,
                    shift: *shift,
                    speculative: *speculative,
                });
                self.writeback_byte(bd, wb);
            }
            MirInst::Load {
                rd,
                rn,
                offset,
                width,
            } => {
                let rn = self.read_word(*rn, &mut sc);
                let (rd, wb) = self.write_word(*rd, &mut sc);
                self.push(MInst::Load {
                    rd,
                    rn,
                    offset: *offset,
                    width: *width,
                    spill: false,
                });
                self.writeback_word(rd, wb);
            }
            MirInst::Store {
                rs,
                rn,
                offset,
                width,
            } => {
                let rs = self.read_word(*rs, &mut sc);
                let rn = self.read_word(*rn, &mut sc);
                self.push(MInst::Store {
                    rs,
                    rn,
                    offset: *offset,
                    width: *width,
                    spill: false,
                });
            }
            MirInst::GlobalAddr { rd, addr } => {
                let (rd, wb) = self.write_word(*rd, &mut sc);
                self.push(MInst::MovImm { rd, imm: *addr });
                self.writeback_word(rd, wb);
            }
            MirInst::FrameAddr { rd, alloca } => {
                let off = self.alloca_off(*alloca);
                let (rd, wb) = self.write_word(*rd, &mut sc);
                if off <= 4095 {
                    self.push(MInst::Alu {
                        op: AluOp::Add,
                        rd,
                        rn: SP,
                        src2: Operand::Imm(off as u32),
                    });
                } else {
                    self.push(MInst::MovImm {
                        rd,
                        imm: off as u32,
                    });
                    self.push(MInst::Alu {
                        op: AluOp::Add,
                        rd,
                        rn: SP,
                        src2: Operand::Reg(rd),
                    });
                }
                self.writeback_word(rd, wb);
            }
            MirInst::GetParam { .. } => unreachable!("params flushed in runs"),
            MirInst::Call { callee, args, rets } => {
                // Arguments: slots 0–3 in r0–r3, rest on the outgoing stack
                // area. Sources never live in r0–r3 (they cross the call).
                for (slot, a) in args.iter().enumerate() {
                    match self.loc_read(*a) {
                        Loc::Reg(r) => {
                            if slot < 4 {
                                if r != Reg(slot as u8) {
                                    self.push(MInst::Mov {
                                        rd: Reg(slot as u8),
                                        rm: r,
                                    });
                                }
                            } else {
                                self.push(MInst::Store {
                                    rs: r,
                                    rn: SP,
                                    offset: ((slot - 4) * 4) as i32,
                                    width: MemWidth::W,
                                    spill: false,
                                });
                            }
                        }
                        Loc::Spill(sl) => {
                            let off = self.spill_off(sl);
                            if slot < 4 {
                                self.push(MInst::Load {
                                    rd: Reg(slot as u8),
                                    rn: SP,
                                    offset: off,
                                    width: MemWidth::W,
                                    spill: true,
                                });
                            } else {
                                self.push(MInst::Load {
                                    rd: Reg(12),
                                    rn: SP,
                                    offset: off,
                                    width: MemWidth::W,
                                    spill: true,
                                });
                                self.push(MInst::Store {
                                    rs: Reg(12),
                                    rn: SP,
                                    offset: ((slot - 4) * 4) as i32,
                                    width: MemWidth::W,
                                    spill: false,
                                });
                            }
                        }
                        Loc::Slice(_)
                        | Loc::WriteThrough { .. }
                        | Loc::WriteThroughSlice { .. } => {
                            panic!("unexpected call-arg location")
                        }
                    }
                }
                let slot = self.out.len();
                self.push(MInst::Bl { target: 0 });
                self.fixups.push((slot, FnFixup::Func(*callee)));
                // Returns: ordered moves out of r0/r1.
                let mut moves: Vec<(Reg, Reg)> = Vec::new();
                let mut wt_ret_stores: Vec<(Reg, i32)> = Vec::new();
                for (i, r) in rets.iter().enumerate() {
                    match self.loc(*r) {
                        Loc::Reg(dst) => {
                            if dst != Reg(i as u8) {
                                moves.push((dst, Reg(i as u8)));
                            }
                        }
                        Loc::WriteThrough { reg, slot } => {
                            if reg != Reg(i as u8) {
                                moves.push((reg, Reg(i as u8)));
                            }
                            wt_ret_stores.push((reg, self.spill_off(slot)));
                        }
                        Loc::Spill(sl) => {
                            let off = self.spill_off(sl);
                            self.push(MInst::Store {
                                rs: Reg(i as u8),
                                rn: SP,
                                offset: off,
                                width: MemWidth::W,
                                spill: true,
                            });
                        }
                        Loc::Slice(_) | Loc::WriteThroughSlice { .. } => {
                            panic!("byte call ret")
                        }
                    }
                }
                self.emit_parallel_moves(&moves);
                for (reg, off) in wt_ret_stores {
                    self.push(MInst::Store {
                        rs: reg,
                        rn: SP,
                        offset: off,
                        width: MemWidth::W,
                        spill: true,
                    });
                }
                // Restore our Δ (the callee may have overwritten it).
                if !self.af.mir.regions.is_empty() {
                    let slot = self.out.len();
                    self.push(MInst::SetDelta { bytes: 0 });
                    self.delta_slots.push(slot);
                }
            }
            MirInst::Out { rn } => {
                let rn = self.read_word(*rn, &mut sc);
                self.push(MInst::Out { rn });
            }
            MirInst::SpecCheck { rn } => {
                let rn = self.read_word(*rn, &mut sc);
                self.push(MInst::SpecCheck { rn });
            }
            MirInst::SAlu {
                op,
                bd,
                bn,
                src2,
                speculative,
            } => {
                let bn = self.read_byte(*bn, &mut sc);
                let src2 = self.byte_operand(src2, &mut sc);
                let (bd, wb) = self.write_byte(*bd, &mut sc);
                self.push(MInst::SAlu {
                    op: *op,
                    bd,
                    bn,
                    src2,
                    speculative: *speculative,
                });
                self.writeback_byte(bd, wb);
            }
            MirInst::SCmp { bn, src2 } => {
                let bn = self.read_byte(*bn, &mut sc);
                let src2 = self.byte_operand(src2, &mut sc);
                self.push(MInst::SCmp { bn, src2 });
            }
            MirInst::SLoadSpec { bd, rn, offset } => {
                let rn = self.read_word(*rn, &mut sc);
                let (bd, wb) = self.write_byte(*bd, &mut sc);
                self.push(MInst::SLoadSpec {
                    bd,
                    rn,
                    offset: *offset,
                });
                self.writeback_byte(bd, wb);
            }
            MirInst::SLoad { bd, rn, offset } => {
                let rn = self.read_word(*rn, &mut sc);
                let (bd, wb) = self.write_byte(*bd, &mut sc);
                self.push(MInst::SLoad {
                    bd,
                    rn,
                    offset: *offset,
                    spill: false,
                });
                self.writeback_byte(bd, wb);
            }
            MirInst::SStore { bs, rn, offset } => {
                let bs = self.read_byte(*bs, &mut sc);
                let rn = self.read_word(*rn, &mut sc);
                self.push(MInst::SStore {
                    bs,
                    rn,
                    offset: *offset,
                    spill: false,
                });
            }
            MirInst::SExtend { rd, bn, signed } => {
                let bn = self.read_byte(*bn, &mut sc);
                let (rd, wb) = self.write_word(*rd, &mut sc);
                self.push(MInst::SExtend {
                    rd,
                    bn,
                    signed: *signed,
                });
                self.writeback_word(rd, wb);
            }
            MirInst::STrunc {
                bd,
                rn,
                speculative,
            } => {
                let rn = self.read_word(*rn, &mut sc);
                let (bd, wb) = self.write_byte(*bd, &mut sc);
                self.push(MInst::STrunc {
                    bd,
                    rn,
                    speculative: *speculative,
                });
                self.writeback_byte(bd, wb);
            }
            MirInst::SMov { bd, bs } => {
                let bs = self.read_byte(*bs, &mut sc);
                let (bd, wb) = self.write_byte(*bd, &mut sc);
                if bd != bs {
                    self.push(MInst::SMov { bd, bs });
                } else if wb.is_none() {
                    return;
                }
                self.writeback_byte(bd, wb);
            }
            MirInst::SMovImm { bd, imm } => {
                let (bd, wb) = self.write_byte(*bd, &mut sc);
                self.push(MInst::SMovImm { bd, imm: *imm });
                self.writeback_byte(bd, wb);
            }
        }
    }

    /// Emits a word ALU op, applying compact-mode 2-address fixups.
    fn emit_alu(&mut self, op: AluOp, rd: Reg, rn: Reg, src2: Operand) {
        if !self.opts.compact || rd == rn {
            self.push(MInst::Alu { op, rd, rn, src2 });
            return;
        }
        // Thumb-like: rd must equal rn.
        let commutative = matches!(
            op,
            AluOp::Add | AluOp::And | AluOp::Orr | AluOp::Eor | AluOp::Mul
        );
        match src2 {
            Operand::Reg(r2) if r2 == rd => {
                if commutative {
                    // rd := r2 op rn  ≡  rd := rd op rn
                    self.push(MInst::Alu {
                        op,
                        rd,
                        rn: rd,
                        src2: Operand::Reg(rn),
                    });
                } else {
                    self.push(MInst::Mov {
                        rd: Reg(12),
                        rm: r2,
                    });
                    self.push(MInst::Mov { rd, rm: rn });
                    self.push(MInst::Alu {
                        op,
                        rd,
                        rn: rd,
                        src2: Operand::Reg(Reg(12)),
                    });
                }
            }
            _ => {
                self.push(MInst::Mov { rd, rm: rn });
                self.push(MInst::Alu {
                    op,
                    rd,
                    rn: rd,
                    src2,
                });
            }
        }
    }
}

impl AllocatedFn {
    /// Registers saved in the prologue: used callee-saved plus `lr` when
    /// the function calls.
    fn af_push_regs(&self) -> Vec<Reg> {
        let mut regs = self.used_callee_saved.clone();
        if self.has_calls {
            regs.push(LR);
        }
        regs
    }
}

/// Per-instruction scratch register allocator (r11 and r12 are reserved by
/// the register allocator for this purpose).
struct Scratch {
    next_read: usize,
    next_write: usize,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            next_read: 0,
            next_write: 0,
        }
    }

    /// Scratch for a source reload. Distinct across reads of one inst.
    fn word(&mut self) -> Reg {
        let r = match self.next_read {
            0 => Reg(11),
            1 => Reg(12),
            _ => panic!("out of scratch registers in one instruction"),
        };
        self.next_read += 1;
        r
    }

    /// Scratch for a destination. May alias a read scratch: every machine
    /// instruction reads all sources before writing its destination(s).
    fn word_for_write(&mut self) -> Reg {
        let r = match self.next_write {
            0 => Reg(11),
            1 => Reg(12),
            _ => panic!("out of write scratch registers in one instruction"),
        };
        self.next_write += 1;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_module;

    fn program_for(src: &str, opts: &CodegenOpts) -> Program {
        let m = lang::compile("t", src).unwrap();
        compile_module(&m, opts)
    }

    #[test]
    fn links_and_addresses_are_monotone() {
        let p = program_for(
            "u32 g(u32 x) { return x * 2; } void main() { out(g(21)); }",
            &CodegenOpts::default(),
        );
        assert!(p.insts.len() > 5);
        for w in p.addrs.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(matches!(p.insts[p.halt], MInst::Halt));
        assert_eq!(p.addr_index[&p.addrs[p.entry]], p.entry);
    }

    #[test]
    fn branch_targets_resolved() {
        let p = program_for(
            "void main() { u32 s = 0; for (u32 i = 0; i < 5; i++) { s += i; } out(s); }",
            &CodegenOpts::default(),
        );
        for i in &p.insts {
            match i {
                MInst::B { target } | MInst::Bc { target, .. } | MInst::Bl { target } => {
                    assert!(*target < p.insts.len(), "dangling branch target");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn compact_mode_doubles_density() {
        let src = "void main() { out(1 + 2); }";
        let normal = program_for(src, &CodegenOpts::default());
        let compact = program_for(
            src,
            &CodegenOpts {
                bitspec: false,
                compact: true,
                spill_prefer_orig: true,
            },
        );
        // Compact instructions are 2 bytes.
        let first_size = compact.insts[0].size(true);
        assert!(first_size == 2 || first_size == 4);
        let _ = normal;
    }
}
