//! Functional + timing simulation of the machine.

use crate::cache::Hierarchy;
use crate::dts::{DtsModel, RAZOR_CYCLE_OVERHEAD};
use crate::energy::{Activity, EnergyBreakdown, EnergyModel};
use backend::Program;
use interp::Memory;
use isa::{AluOp, Cond, MInst, MemWidth, Operand, Reg, Slice, SliceOperand, LR, SP};
use std::error::Error;
use std::fmt;

/// Which simulation engine to run. The two are equivalent — `outputs`,
/// `cycles`, `counts` and `activity` are bit-identical, energy matches
/// within float-summation tolerance (≤1e-6 rel) — and the regression
/// suite holds them to that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// The obviously-correct per-step oracle: full `match` dispatch,
    /// per-instruction f64 energy accumulation.
    Reference,
    /// Predecoded handler-LUT dispatch with basic-block fusion: one
    /// static decode per instruction into a handler function pointer +
    /// packed operands, dispatched one handler per instruction; the
    /// counters of each straight-line block are accumulated once at
    /// predecode time (split by DTS class when DTS is on), with
    /// per-instruction fallback on misspeculation redirects that enter
    /// mid-block.
    #[default]
    Turbo,
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Enable the dynamic-timing-slack mode (RQ8).
    pub dts: bool,
    /// Dynamic instruction budget: a run that executes N instructions
    /// (`counts.dyn_insts`, which leaves out the final `Halt`) needs
    /// `fuel >= N`.
    pub fuel: u64,
    /// Energy model constants.
    pub energy: EnergyModel,
    /// Simulation engine. Defaults to [`Engine::Turbo`]; the reference
    /// engine exists as the oracle it is tested against.
    pub engine: Engine,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            dts: false,
            fuel: 2_000_000_000,
            energy: EnergyModel::default(),
            engine: Engine::Turbo,
        }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Memory fault at `addr`.
    MemFault { pc: usize, addr: u32 },
    /// Instruction budget exhausted.
    OutOfFuel,
    /// `pc + Δ` did not land on an instruction boundary (layout bug).
    BadMisspecTarget { pc: usize, target_addr: u32 },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MemFault { pc, addr } => {
                write!(f, "memory fault at pc={pc}, address {addr:#x}")
            }
            SimError::OutOfFuel => write!(f, "simulation fuel exhausted"),
            SimError::BadMisspecTarget { pc, target_addr } => {
                write!(
                    f,
                    "misspeculation from pc={pc} to unmapped {target_addr:#x}"
                )
            }
        }
    }
}

impl Error for SimError {}

/// Event counters beyond the raw energy activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Executed instructions.
    pub dyn_insts: u64,
    pub branches: u64,
    pub taken_branches: u64,
    /// Misspeculation events (Table 2).
    pub misspecs: u64,
    /// Register-allocator spill reloads / stores (Figure 10).
    pub spill_loads: u64,
    pub spill_stores: u64,
    /// Register-register copies (Figure 10).
    pub copies: u64,
    pub loads: u64,
    pub stores: u64,
}

/// The result of a simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    pub outputs: Vec<u32>,
    pub cycles: u64,
    pub counts: Counts,
    pub activity: Activity,
    pub energy: EnergyBreakdown,
}

impl SimResult {
    /// Total energy in picojoules.
    pub fn total_energy(&self) -> f64 {
        self.energy.total()
    }

    /// Energy per instruction.
    pub fn epi(&self) -> f64 {
        self.energy.total() / self.counts.dyn_insts.max(1) as f64
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Flags {
    n: bool,
    z: bool,
    c: bool,
    v: bool,
}

/// The machine simulator.
pub struct Simulator<'p> {
    pub(crate) p: &'p Program,
    pub(crate) cfg: SimConfig,
    pub(crate) regs: [u32; 16],
    pub(crate) flags: Flags,
    pub(crate) delta: u32,
    pub(crate) pc: usize,
    pub(crate) mem: Memory,
    pub(crate) hier: Hierarchy,
    pub(crate) outputs: Vec<u32>,
    pub(crate) counts: Counts,
    pub(crate) act: Activity,
    pub(crate) energy: EnergyBreakdown,
    pub(crate) dts: DtsModel,
    /// Destination of the previous instruction if it was a load (load-use
    /// interlock modelling; reference engine).
    last_load_dest: Option<Reg>,
    /// Turbo interlock state: destination mask of the previous
    /// instruction if it was a word load.
    pub(crate) last_load_mask: u32,
    /// I-fetch line buffer: the line index (`addr / line_bytes`) of the
    /// most recent fetch and its resident L1I slot. A same-line fetch is a
    /// guaranteed hit (nothing else touches the I$ between fetches), so
    /// turbo records the hit directly without a tag lookup.
    pub(crate) ibuf_line: u32,
    pub(crate) ibuf_slot: usize,
    /// Turbo's D-side buffer: a per-set MRU line map (one entry per L1D
    /// set, indexed by `line & (sets-1)` — the same function as the
    /// cache's own set index). Entry `i` caches the most recently touched
    /// resident line of set `i` and its flat slot. Valid by construction:
    /// every L1D access flows through `turbo_data`, evicting a buffered
    /// line requires a fill in the same set, and every fill overwrites
    /// that set's entry. Covers as many concurrent hot lines as the L1D
    /// has sets, so 3+ interleaved streams (partition loops, graph row +
    /// distance + visited arrays) stay buffered.
    pub(crate) dmap: Vec<(u32, u32)>,
    /// `log2` of the L1D line size, for the data line-buffer index.
    pub(crate) dline_shift: u32,
    /// Fault parked by a turbo handler (`Step::Fault`); handlers return a
    /// register-sized `Step` instead of a `Result` so the hot dispatch loop
    /// avoids a by-memory return, and the run loop picks the error up here.
    pub(crate) terr: Option<SimError>,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator with globals installed.
    pub fn new(p: &'p Program, cfg: &SimConfig) -> Simulator<'p> {
        let mut mem = Memory::new(p.mem_size);
        for (addr, data) in &p.global_inits {
            mem.write_bytes(*addr, data);
        }
        let mut regs = [0u32; 16];
        regs[SP.index()] = p.mem_size - 16;
        regs[LR.index()] = p.halt as u32;
        let hier = Hierarchy::default();
        let dline = hier.l1d.line();
        assert!(dline.is_power_of_two(), "L1D line size must be 2^k");
        Simulator {
            p,
            cfg: cfg.clone(),
            regs,
            flags: Flags::default(),
            delta: 0,
            pc: p.entry,
            mem,
            hier,
            outputs: Vec::new(),
            counts: Counts::default(),
            act: Activity::default(),
            energy: EnergyBreakdown::default(),
            dts: DtsModel::default(),
            last_load_dest: None,
            last_load_mask: 0,
            ibuf_line: u32::MAX,
            ibuf_slot: 0,
            dmap: Vec::new(),
            dline_shift: dline.trailing_zeros(),
            terr: None,
        }
    }

    /// Installs raw bytes at an absolute address (benchmark inputs).
    pub fn install(&mut self, addr: u32, data: &[u8]) {
        self.mem.write_bytes(addr, data);
    }

    /// Runs to `Halt`.
    ///
    /// # Errors
    /// Returns a [`SimError`] on faults or fuel exhaustion.
    pub fn run(self) -> Result<SimResult, SimError> {
        match self.cfg.engine {
            Engine::Reference => self.run_reference(),
            Engine::Turbo => self.run_turbo(),
        }
    }

    /// The retained reference engine: per-step `MInst` clone, `Vec`-based
    /// interlock detection, full cache lookup on every fetch and per-step
    /// floating-point energy accumulation. Kept as the oracle the turbo
    /// engine is regression-tested against (`tests/equivalence.rs`).
    pub(crate) fn run_reference(mut self) -> Result<SimResult, SimError> {
        let em = self.cfg.energy;
        loop {
            let pc = self.pc;
            let inst = &self.p.insts[pc];
            // `Halt` is not counted in `dyn_insts`, so it takes no fuel.
            if matches!(inst, MInst::Halt) {
                break;
            }
            if self.counts.dyn_insts >= self.cfg.fuel {
                return Err(SimError::OutOfFuel);
            }
            self.counts.dyn_insts += 1;
            // --- fetch ------------------------------------------------------
            let size = inst.size(self.p.compact);
            let addr = self.p.addrs[pc];
            let slots = size.div_ceil(4).max(1) as u64;
            let mut stall = self.fetch_with_energy(addr, &em);
            if size > 4 {
                stall += self.fetch_with_energy(addr + 4, &em);
            }
            self.act.fetch_slots += slots;
            // --- execute ----------------------------------------------------
            let mut cyc: u64 = 1 + stall;
            let scale = if self.cfg.dts {
                self.dts.scale(inst)
            } else {
                1.0
            };
            let inst = inst.clone();
            // Load-use interlock.
            if let Some(ld) = self.last_load_dest {
                if reg_reads(&inst).contains(&ld) {
                    cyc += 1;
                }
            }
            self.last_load_dest = None;
            let mut core_e = 0.0; // this instruction's ALU+RF energy
            let next_pc = self.exec(pc, &inst, &em, &mut cyc, &mut core_e)?;
            // DTS scales the core (logic + clock) energy; caches are a
            // separate voltage domain.
            let pipe_e = cyc as f64
                * em.pipeline_cycle
                * if self.cfg.dts {
                    1.0 + RAZOR_CYCLE_OVERHEAD
                } else {
                    1.0
                };
            self.energy.pipeline += pipe_e * scale;
            // core_e was accumulated unscaled into components inside exec;
            // apply the DTS discount post-hoc.
            if self.cfg.dts && core_e > 0.0 {
                let discount = core_e * (1.0 - scale);
                // Deduct proportionally from ALU and regfile.
                let total = self.energy.alu + self.energy.regfile;
                if total > 0.0 {
                    let alu_share = self.energy.alu / total;
                    self.energy.alu -= discount * alu_share;
                    self.energy.regfile -= discount * (1.0 - alu_share);
                }
            }
            self.act.cycles += cyc;
            self.pc = next_pc;
        }
        self.act.l2_accesses = self.hier.l2.accesses();
        self.act.dram_accesses = self.hier.dram_accesses;
        Ok(SimResult {
            outputs: self.outputs,
            cycles: self.act.cycles,
            counts: self.counts,
            activity: self.act,
            energy: self.energy,
        })
    }

    fn fetch_with_energy(&mut self, addr: u32, em: &EnergyModel) -> u64 {
        let l2_before = self.hier.l2.accesses();
        let dram_before = self.hier.dram_accesses;
        let stall = self.hier.fetch(addr);
        self.act.l2_from_i += self.hier.l2.accesses() - l2_before;
        self.act.dram_from_i += self.hier.dram_accesses - dram_before;
        self.energy.icache += em.l1i_access;
        self.energy.icache += (self.hier.l2.accesses() - l2_before) as f64 * em.l2_access;
        self.energy.icache += (self.hier.dram_accesses - dram_before) as f64 * em.dram_access;
        stall
    }

    fn data_access(
        &mut self,
        pc: usize,
        addr: u32,
        write: bool,
        em: &EnergyModel,
    ) -> Result<u64, SimError> {
        if addr < 0x100 || addr >= self.p.mem_size {
            return Err(SimError::MemFault { pc, addr });
        }
        let l2_before = self.hier.l2.accesses();
        let dram_before = self.hier.dram_accesses;
        let stall = self.hier.data(addr, write);
        self.act.l1d_accesses += 1;
        self.energy.dcache += em.l1d_access;
        self.energy.dcache += (self.hier.l2.accesses() - l2_before) as f64 * em.l2_access;
        self.energy.dcache += (self.hier.dram_accesses - dram_before) as f64 * em.dram_access;
        Ok(stall)
    }

    // --- register-file accounting -------------------------------------------

    // Invariant: every `Reg` reaching the simulator indexes the 16-entry
    // architectural file (`r0`–`r15`) — the back-end never emits anything
    // wider, and `Reg`'s constructors keep it that way. Both accessors
    // debug-assert the invariant symmetrically; release builds index
    // directly (a violation is a compiler bug, not a program input).
    fn read_reg(&mut self, r: Reg, em: &EnergyModel, core_e: &mut f64) -> u32 {
        debug_assert!(r.index() < 16, "register {r:?} out of file bounds");
        self.act.rf_read_units += 4;
        self.act.reg_accesses_32 += 1;
        let e = 4.0 * em.rf_slice_read;
        self.energy.regfile += e;
        *core_e += e;
        self.regs[r.index()]
    }

    fn write_reg(&mut self, r: Reg, v: u32, em: &EnergyModel, core_e: &mut f64) {
        debug_assert!(r.index() < 16, "register {r:?} out of file bounds");
        self.act.rf_write_units += 4;
        self.act.reg_accesses_32 += 1;
        let e = 4.0 * em.rf_slice_write;
        self.energy.regfile += e;
        *core_e += e;
        self.regs[r.index()] = v;
    }

    fn read_slice(&mut self, s: Slice, em: &EnergyModel, core_e: &mut f64) -> u32 {
        self.act.rf_read_units += 1;
        self.act.reg_accesses_8 += 1;
        let e = em.rf_slice_read;
        self.energy.regfile += e;
        *core_e += e;
        (self.regs[s.reg.index()] >> s.shift()) & 0xFF
    }

    fn write_slice(&mut self, s: Slice, v: u32, em: &EnergyModel, core_e: &mut f64) {
        self.act.rf_write_units += 1;
        self.act.reg_accesses_8 += 1;
        let e = em.rf_slice_write;
        self.energy.regfile += e;
        *core_e += e;
        let mask = 0xFFu32 << s.shift();
        let r = &mut self.regs[s.reg.index()];
        *r = (*r & !mask) | ((v & 0xFF) << s.shift());
    }

    fn alu_energy(&mut self, slices: f64, em: &EnergyModel, core_e: &mut f64) {
        let e = slices * em.alu_slice;
        self.energy.alu += e;
        *core_e += e;
    }

    // --- misspeculation -------------------------------------------------------

    pub(crate) fn misspec_target(&mut self, pc: usize) -> Result<usize, SimError> {
        self.counts.misspecs += 1;
        let target_addr = self.p.addrs[pc].wrapping_add(self.delta);
        self.p
            .addr_index
            .get(&target_addr)
            .copied()
            .ok_or(SimError::BadMisspecTarget { pc, target_addr })
    }

    // --- main dispatch ----------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn exec(
        &mut self,
        pc: usize,
        inst: &MInst,
        em: &EnergyModel,
        cyc: &mut u64,
        core_e: &mut f64,
    ) -> Result<usize, SimError> {
        let next = pc + 1;
        match inst {
            MInst::Alu { op, rd, rn, src2 } => {
                let a = self.read_reg(*rn, em, core_e);
                let b = self.operand(src2, em, core_e);
                match op {
                    AluOp::Mul => {
                        self.act.mul_ops += 1;
                        let e = em.mul;
                        self.energy.alu += e;
                        *core_e += e;
                        *cyc += 2;
                    }
                    AluOp::Udiv | AluOp::Sdiv => {
                        self.act.div_ops += 1;
                        let e = em.div;
                        self.energy.alu += e;
                        *core_e += e;
                        *cyc += 11;
                    }
                    _ => {
                        self.act.alu_word_ops += 1;
                        self.alu_energy(4.0, em, core_e);
                    }
                }
                let (r, fl) = alu_exec(*op, a, b, self.flags);
                if op.sets_flags() {
                    self.flags = fl;
                }
                self.write_reg(*rd, r, em, core_e);
            }
            MInst::MovImm { rd, imm } => {
                self.write_reg(*rd, *imm, em, core_e);
            }
            MInst::Mov { rd, rm } => {
                self.counts.copies += 1;
                let v = self.read_reg(*rm, em, core_e);
                self.write_reg(*rd, v, em, core_e);
            }
            MInst::MovCc { rd, rm, cond } => {
                self.counts.copies += 1;
                let v = self.read_reg(*rm, em, core_e);
                if eval_cond(*cond, self.flags) {
                    self.write_reg(*rd, v, em, core_e);
                }
            }
            MInst::Cmp { rn, src2 } => {
                let a = self.read_reg(*rn, em, core_e);
                let b = self.operand(src2, em, core_e);
                self.act.alu_word_ops += 1;
                self.alu_energy(4.0, em, core_e);
                let (_, fl) = alu_exec(AluOp::Subs, a, b, self.flags);
                self.flags = fl;
            }
            MInst::CSet { rd, cond } => {
                let v = u32::from(eval_cond(*cond, self.flags));
                self.write_reg(*rd, v, em, core_e);
            }
            MInst::Umull { rdlo, rdhi, rn, rm } => {
                let a = self.read_reg(*rn, em, core_e) as u64;
                let b = self.read_reg(*rm, em, core_e) as u64;
                self.act.mul_ops += 1;
                self.act.umull_ops += 1;
                let e = em.mul * 1.5;
                self.energy.alu += e;
                *core_e += e;
                *cyc += 3;
                let r = a * b;
                self.write_reg(*rdlo, r as u32, em, core_e);
                self.write_reg(*rdhi, (r >> 32) as u32, em, core_e);
            }
            MInst::Extend {
                rd,
                rm,
                from,
                signed,
            } => {
                let v = self.read_reg(*rm, em, core_e);
                self.act.alu_word_ops += 1;
                self.act.extend_ops += 1;
                self.alu_energy(2.0, em, core_e);
                let r = match (from, signed) {
                    (MemWidth::B, false) => v & 0xFF,
                    (MemWidth::B, true) => v as u8 as i8 as i32 as u32,
                    (MemWidth::H, false) => v & 0xFFFF,
                    (MemWidth::H, true) => v as u16 as i16 as i32 as u32,
                    (MemWidth::W, _) => v,
                };
                self.write_reg(*rd, r, em, core_e);
            }
            MInst::LoadIdx {
                rd,
                rn,
                bidx,
                shift,
                width,
            } => {
                self.counts.loads += 1;
                let base = self.read_reg(*rn, em, core_e);
                let idx = self.read_slice(*bidx, em, core_e);
                let addr = base.wrapping_add(idx << shift);
                *cyc += self.data_access(pc, addr, false, em)?;
                let v = self
                    .mem
                    .load(addr, mem_width(*width))
                    .map_err(|_| SimError::MemFault { pc, addr })? as u32;
                self.write_reg(*rd, v, em, core_e);
                self.last_load_dest = Some(*rd);
            }
            MInst::SLoadIdx {
                bd,
                rn,
                bidx,
                shift,
                speculative,
            } => {
                self.counts.loads += 1;
                let base = self.read_reg(*rn, em, core_e);
                let idx = self.read_slice(*bidx, em, core_e);
                let addr = base.wrapping_add(idx << shift);
                *cyc += self.data_access(pc, addr, false, em)?;
                let (w, check) = if *speculative {
                    (sir::Width::W32, true)
                } else {
                    (sir::Width::W8, false)
                };
                let v = self
                    .mem
                    .load(addr, w)
                    .map_err(|_| SimError::MemFault { pc, addr })? as u32;
                if check {
                    self.act.spec_monitored_ops += 1;
                    let e = em.misspec_detect;
                    self.energy.alu += e;
                    *core_e += e;
                    if v > 0xFF {
                        *cyc += 3;
                        return self.misspec_target(pc);
                    }
                }
                self.write_slice(*bd, v, em, core_e);
            }
            MInst::Load {
                rd,
                rn,
                offset,
                width,
                spill,
            } => {
                self.counts.loads += 1;
                if *spill {
                    self.counts.spill_loads += 1;
                }
                let base = self.read_reg(*rn, em, core_e);
                let addr = base.wrapping_add(*offset as u32);
                *cyc += self.data_access(pc, addr, false, em)?;
                let w = mem_width(*width);
                let v = self
                    .mem
                    .load(addr, w)
                    .map_err(|_| SimError::MemFault { pc, addr })? as u32;
                self.write_reg(*rd, v, em, core_e);
                self.last_load_dest = Some(*rd);
            }
            MInst::Store {
                rs,
                rn,
                offset,
                width,
                spill,
            } => {
                self.counts.stores += 1;
                if *spill {
                    self.counts.spill_stores += 1;
                }
                let v = self.read_reg(*rs, em, core_e);
                let base = self.read_reg(*rn, em, core_e);
                let addr = base.wrapping_add(*offset as u32);
                *cyc += self.data_access(pc, addr, true, em)?;
                self.mem
                    .store(addr, mem_width(*width), u64::from(v))
                    .map_err(|_| SimError::MemFault { pc, addr })?;
            }
            MInst::Push { regs } => {
                let mut sp = self.regs[SP.index()];
                for r in regs.iter().rev() {
                    sp = sp.wrapping_sub(4);
                    let v = self.read_reg(*r, em, core_e);
                    *cyc += self.data_access(pc, sp, true, em)?;
                    self.mem
                        .store(sp, sir::Width::W32, u64::from(v))
                        .map_err(|_| SimError::MemFault { pc, addr: sp })?;
                    *cyc += 1;
                    self.counts.stores += 1;
                }
                self.regs[SP.index()] = sp;
            }
            MInst::Pop { regs } => {
                let mut sp = self.regs[SP.index()];
                for r in regs.iter() {
                    *cyc += self.data_access(pc, sp, false, em)?;
                    let v = self
                        .mem
                        .load(sp, sir::Width::W32)
                        .map_err(|_| SimError::MemFault { pc, addr: sp })?;
                    self.write_reg(*r, v as u32, em, core_e);
                    sp = sp.wrapping_add(4);
                    *cyc += 1;
                    self.counts.loads += 1;
                }
                self.regs[SP.index()] = sp;
            }
            MInst::B { target } => {
                self.counts.branches += 1;
                self.counts.taken_branches += 1;
                *cyc += 2;
                return Ok(*target);
            }
            MInst::Bc { cond, target } => {
                self.counts.branches += 1;
                if eval_cond(*cond, self.flags) {
                    self.counts.taken_branches += 1;
                    *cyc += 2;
                    return Ok(*target);
                }
            }
            MInst::Bl { target } => {
                self.counts.branches += 1;
                self.counts.taken_branches += 1;
                *cyc += 2;
                self.write_reg(LR, next as u32, em, core_e);
                return Ok(*target);
            }
            MInst::Ret => {
                self.counts.branches += 1;
                self.counts.taken_branches += 1;
                *cyc += 2;
                let lr = self.read_reg(LR, em, core_e);
                return Ok(lr as usize);
            }
            MInst::Out { rn } => {
                let v = self.read_reg(*rn, em, core_e);
                self.outputs.push(v);
            }
            MInst::Halt => unreachable!("handled in run loop"),
            MInst::Nop => {}
            MInst::SAlu {
                op,
                bd,
                bn,
                src2,
                speculative,
            } => {
                let a = self.read_slice(*bn, em, core_e);
                let b = self.slice_operand(src2, em, core_e);
                self.act.alu_slice_ops += 1;
                self.alu_energy(1.0, em, core_e);
                if *speculative {
                    self.act.spec_monitored_ops += 1;
                    let e = em.misspec_detect;
                    self.energy.alu += e;
                    *core_e += e;
                }
                use isa::inst::SAluOp::*;
                let (r, misspec) = match op {
                    Add => {
                        let r = a + b;
                        (r & 0xFF, *speculative && r > 0xFF)
                    }
                    Sub => {
                        let r = a.wrapping_sub(b) & 0xFF;
                        (r, *speculative && a < b)
                    }
                    Lsl => {
                        // Shifts ≥ 8 clear the slice; the wide result needs
                        // more than 8 bits whenever a != 0 (misspeculate).
                        if b >= 8 {
                            (0, *speculative && a != 0)
                        } else {
                            let r = a << b;
                            (r & 0xFF, *speculative && r > 0xFF)
                        }
                    }
                    Lsr => (if b >= 8 { 0 } else { a >> b }, false),
                    Asr => {
                        let sa = (a as u8 as i8) >> b.min(7);
                        ((sa as u8) as u32, false)
                    }
                    And => (a & b, false),
                    Orr => (a | b, false),
                    Eor => (a ^ b, false),
                };
                if misspec {
                    *cyc += 3;
                    return self.misspec_target(pc);
                }
                self.write_slice(*bd, r, em, core_e);
            }
            MInst::SCmp { bn, src2 } => {
                let a = self.read_slice(*bn, em, core_e);
                let b = self.slice_operand(src2, em, core_e);
                self.act.alu_slice_ops += 1;
                self.alu_energy(1.0, em, core_e);
                self.flags = flags_sub8(a, b);
            }
            MInst::SLoadSpec { bd, rn, offset } => {
                self.counts.loads += 1;
                let base = self.read_reg(*rn, em, core_e);
                let addr = base.wrapping_add(*offset as u32);
                *cyc += self.data_access(pc, addr, false, em)?;
                self.act.spec_monitored_ops += 1;
                let e = em.misspec_detect;
                self.energy.alu += e;
                *core_e += e;
                let v = self
                    .mem
                    .load(addr, sir::Width::W32)
                    .map_err(|_| SimError::MemFault { pc, addr })? as u32;
                if v > 0xFF {
                    *cyc += 3;
                    return self.misspec_target(pc);
                }
                self.write_slice(*bd, v, em, core_e);
            }
            MInst::SLoad {
                bd,
                rn,
                offset,
                spill,
            } => {
                self.counts.loads += 1;
                if *spill {
                    self.counts.spill_loads += 1;
                }
                let base = self.read_reg(*rn, em, core_e);
                let addr = base.wrapping_add(*offset as u32);
                *cyc += self.data_access(pc, addr, false, em)?;
                let v = self
                    .mem
                    .load(addr, sir::Width::W8)
                    .map_err(|_| SimError::MemFault { pc, addr })? as u32;
                self.write_slice(*bd, v, em, core_e);
            }
            MInst::SStore {
                bs,
                rn,
                offset,
                spill,
            } => {
                self.counts.stores += 1;
                if *spill {
                    self.counts.spill_stores += 1;
                }
                let v = self.read_slice(*bs, em, core_e);
                let base = self.read_reg(*rn, em, core_e);
                let addr = base.wrapping_add(*offset as u32);
                *cyc += self.data_access(pc, addr, true, em)?;
                self.mem
                    .store(addr, sir::Width::W8, u64::from(v))
                    .map_err(|_| SimError::MemFault { pc, addr })?;
            }
            MInst::SExtend { rd, bn, signed } => {
                let v = self.read_slice(*bn, em, core_e);
                self.act.alu_slice_ops += 1;
                self.alu_energy(1.0, em, core_e);
                let r = if *signed {
                    v as u8 as i8 as i32 as u32
                } else {
                    v
                };
                self.write_reg(*rd, r, em, core_e);
            }
            MInst::STrunc {
                bd,
                rn,
                speculative,
            } => {
                let v = self.read_reg(*rn, em, core_e);
                if *speculative {
                    self.act.spec_monitored_ops += 1;
                    let e = em.misspec_detect;
                    self.energy.alu += e;
                    *core_e += e;
                    if v > 0xFF {
                        *cyc += 3;
                        return self.misspec_target(pc);
                    }
                }
                self.write_slice(*bd, v & 0xFF, em, core_e);
            }
            MInst::SMov { bd, bs } => {
                self.counts.copies += 1;
                let v = self.read_slice(*bs, em, core_e);
                self.write_slice(*bd, v, em, core_e);
            }
            MInst::SMovImm { bd, imm } => {
                self.write_slice(*bd, u32::from(*imm), em, core_e);
            }
            MInst::SetDelta { bytes } => {
                self.delta = *bytes;
            }
            MInst::SpecCheck { rn } => {
                let v = self.read_reg(*rn, em, core_e);
                self.act.spec_monitored_ops += 1;
                self.act.speccheck_ops += 1;
                if v != 0 {
                    *cyc += 3;
                    return self.misspec_target(pc);
                }
            }
        }
        Ok(next)
    }

    fn operand(&mut self, o: &Operand, em: &EnergyModel, core_e: &mut f64) -> u32 {
        match o {
            Operand::Imm(i) => *i,
            Operand::Reg(r) => self.read_reg(*r, em, core_e),
        }
    }

    fn slice_operand(&mut self, o: &SliceOperand, em: &EnergyModel, core_e: &mut f64) -> u32 {
        match o {
            SliceOperand::Imm(i) => u32::from(*i),
            SliceOperand::Slice(s) => self.read_slice(*s, em, core_e),
        }
    }
}

fn mem_width(w: MemWidth) -> sir::Width {
    match w {
        MemWidth::B => sir::Width::W8,
        MemWidth::H => sir::Width::W16,
        MemWidth::W => sir::Width::W32,
    }
}

/// Registers an instruction reads (load-use interlock detection).
fn reg_reads(inst: &MInst) -> Vec<Reg> {
    let mut out = Vec::new();
    fn op(out: &mut Vec<Reg>, o: &Operand) {
        if let Operand::Reg(r) = o {
            out.push(*r);
        }
    }
    match inst {
        MInst::Alu { rn, src2, .. } => {
            out.push(*rn);
            op(&mut out, src2);
        }
        MInst::Mov { rm, .. } | MInst::MovCc { rm, .. } => out.push(*rm),
        MInst::Cmp { rn, src2 } => {
            out.push(*rn);
            op(&mut out, src2);
        }
        MInst::Extend { rm, .. } => out.push(*rm),
        MInst::Umull { rn, rm, .. } => {
            out.push(*rn);
            out.push(*rm);
        }
        MInst::Load { rn, .. } => out.push(*rn),
        MInst::Store { rs, rn, .. } => {
            out.push(*rs);
            out.push(*rn);
        }
        MInst::Out { rn } | MInst::SpecCheck { rn } => out.push(*rn),
        MInst::SAlu { bn, src2, .. } => {
            out.push(bn.reg);
            if let SliceOperand::Slice(s) = src2 {
                out.push(s.reg);
            }
        }
        MInst::SCmp { bn, src2 } => {
            out.push(bn.reg);
            if let SliceOperand::Slice(s) = src2 {
                out.push(s.reg);
            }
        }
        MInst::SLoadSpec { rn, .. } | MInst::SLoad { rn, .. } => out.push(*rn),
        MInst::LoadIdx { rn, bidx, .. } | MInst::SLoadIdx { rn, bidx, .. } => {
            out.push(*rn);
            out.push(bidx.reg);
        }
        MInst::SStore { bs, rn, .. } => {
            out.push(bs.reg);
            out.push(*rn);
        }
        MInst::SExtend { bn, .. } => out.push(bn.reg),
        MInst::STrunc { rn, .. } => out.push(*rn),
        MInst::SMov { bs, .. } => out.push(bs.reg),
        _ => {}
    }
    out
}

#[inline]
pub(crate) fn alu_exec(op: AluOp, a: u32, b: u32, flags: Flags) -> (u32, Flags) {
    let mut fl = flags;
    let r = match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Adds => {
            let (r, c) = a.overflowing_add(b);
            fl = flags_arith(r, c, signed_add_overflow(a, b, r));
            r
        }
        AluOp::Adc => a.wrapping_add(b).wrapping_add(u32::from(flags.c)),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Subs => {
            let r = a.wrapping_sub(b);
            fl = flags_arith(r, a >= b, signed_sub_overflow(a, b, r));
            r
        }
        AluOp::Sbc => a.wrapping_sub(b).wrapping_sub(u32::from(!flags.c)),
        AluOp::Sbcs => {
            let borrow_in = u32::from(!flags.c);
            let r = a.wrapping_sub(b).wrapping_sub(borrow_in);
            let no_borrow = (a as u64) >= (b as u64 + borrow_in as u64);
            fl = flags_arith(r, no_borrow, signed_sub_overflow(a, b, r));
            r
        }
        AluOp::And => a & b,
        AluOp::Orr => a | b,
        AluOp::Eor => a ^ b,
        AluOp::Lsl => {
            if b >= 32 {
                0
            } else {
                a << b
            }
        }
        AluOp::Lsr => {
            if b >= 32 {
                0
            } else {
                a >> b
            }
        }
        AluOp::Asr => ((a as i32) >> b.min(31)) as u32,
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Udiv => a.checked_div(b).unwrap_or(0),
        AluOp::Sdiv => {
            if b == 0 {
                0
            } else {
                (a as i32).wrapping_div(b as i32) as u32
            }
        }
    };
    (r, fl)
}

fn flags_arith(r: u32, c: bool, v: bool) -> Flags {
    Flags {
        n: (r as i32) < 0,
        z: r == 0,
        c,
        v,
    }
}

fn signed_add_overflow(a: u32, b: u32, r: u32) -> bool {
    ((a ^ r) & (b ^ r) & 0x8000_0000) != 0
}

fn signed_sub_overflow(a: u32, b: u32, r: u32) -> bool {
    ((a ^ b) & (a ^ r) & 0x8000_0000) != 0
}

pub(crate) fn flags_sub8(a: u32, b: u32) -> Flags {
    let r = a.wrapping_sub(b) & 0xFF;
    Flags {
        n: r & 0x80 != 0,
        z: r == 0,
        c: a >= b,
        v: ((a ^ b) & (a ^ r) & 0x80) != 0,
    }
}

pub(crate) fn eval_cond(c: Cond, f: Flags) -> bool {
    match c {
        Cond::Eq => f.z,
        Cond::Ne => !f.z,
        Cond::Lo => !f.c,
        Cond::Hs => f.c,
        Cond::Hi => f.c && !f.z,
        Cond::Ls => !f.c || f.z,
        Cond::Lt => f.n != f.v,
        Cond::Ge => f.n == f.v,
        Cond::Gt => !f.z && f.n == f.v,
        Cond::Le => f.z || f.n != f.v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backend::CodegenOpts;

    fn run_src(src: &str) -> SimResult {
        let mut m = lang::compile("t", src).unwrap();
        opt::simplify::run(&mut m);
        opt::dce::run(&mut m);
        let p = backend::compile_module(&m, &CodegenOpts::default());
        let mut sim = Simulator::new(&p, &SimConfig::default());
        let _ = &mut sim;
        Simulator::new(&p, &SimConfig::default()).run().unwrap()
    }

    fn interp_outputs(src: &str) -> Vec<u32> {
        let mut m = lang::compile("t", src).unwrap();
        opt::simplify::run(&mut m);
        opt::dce::run(&mut m);
        let mut i = interp::Interpreter::new(&m);
        i.run("main", &[]).unwrap().outputs
    }

    fn differential(src: &str) {
        assert_eq!(run_src(src).outputs, interp_outputs(src), "src: {src}");
    }

    #[test]
    fn arithmetic_matches_interpreter() {
        differential("void main() { out(2 + 3 * 4 - 1); out(100 / 7); out(100 % 7); }");
    }

    #[test]
    fn signed_ops_match() {
        differential(
            "void main() {
                i32 a = 0 - 77;
                out((u32)(a / 4)); out((u32)(a % 4)); out((u32)(a >> 3));
                out((u32)(a * 3));
            }",
        );
    }

    #[test]
    fn loops_and_branches_match() {
        differential(
            "void main() {
                u32 s = 0;
                for (u32 i = 0; i < 50; i++) { if (i % 3 == 0) { s += i; } }
                out(s);
            }",
        );
    }

    #[test]
    fn memory_and_globals_match() {
        differential(
            "global u32 t[8] = {5, 10, 20, 40, 80, 160, 320, 640};
             void main() {
                u32 s = 0;
                for (u32 i = 0; i < 8; i++) { s += t[i]; }
                t[0] = s;
                out(t[0]);
             }",
        );
    }

    #[test]
    fn calls_match() {
        differential(
            "u32 sq(u32 x) { return x * x; }
             u32 add3(u32 a, u32 b, u32 c) { return a + b + c; }
             void main() { out(add3(sq(3), sq(4), sq(5))); }",
        );
    }

    #[test]
    fn recursion_matches() {
        differential(
            "u32 fib(u32 n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
             void main() { out(fib(12)); }",
        );
    }

    #[test]
    fn many_args_use_stack() {
        differential(
            "u32 six(u32 a, u32 b, u32 c, u32 d, u32 e, u32 f) {
                return a + b * 2 + c * 3 + d * 4 + e * 5 + f * 6;
             }
             void main() { out(six(1, 2, 3, 4, 5, 6)); }",
        );
    }

    #[test]
    fn u64_arithmetic_matches() {
        differential(
            "void main() {
                u64 a = 0xFFFFFFFF;
                u64 b = a + 2;           // carry into the high word
                out(b);
                u64 c = b * 3;
                out(c);
                u64 d = c >> 4;
                out(d);
                u64 e = c << 8;
                out(e);
                if (b > a) { out(1); } else { out(0); }
                if (a == b) { out(2); } else { out(3); }
             }",
        );
    }

    #[test]
    fn i64_signed_compare_matches() {
        differential(
            "void main() {
                i64 a = 0 - 5;
                i64 b = 3;
                if (a < b) { out(1); } else { out(0); }
                if (a > b) { out(1); } else { out(0); }
             }",
        );
    }

    #[test]
    fn local_arrays_match() {
        differential(
            "void main() {
                u16 buf[16];
                for (u32 i = 0; i < 16; i++) { buf[i] = (u16)(i * 321); }
                u32 s = 0;
                for (u32 i = 0; i < 16; i++) { s += buf[i]; }
                out(s);
             }",
        );
    }

    #[test]
    fn high_register_pressure_matches() {
        // Forces spills; differential correctness must survive them.
        let mut body = String::new();
        for i in 0..20 {
            body.push_str(&format!("u32 x{i} = (a + {i}) * ({} + a % 7);\n", i + 2));
        }
        body.push_str("u32 s = 0;\n");
        for i in 0..20 {
            body.push_str(&format!("s += x{i} ^ (x{} >> 2);\n", (i + 7) % 20));
        }
        body.push_str("out(s);");
        let src = format!("void main() {{ u32 a = 12345; {body} }}");
        differential(&src);
    }

    #[test]
    fn cycles_and_energy_accumulate() {
        let r =
            run_src("void main() { u32 s = 0; for (u32 i = 0; i < 100; i++) { s += i; } out(s); }");
        assert!(r.cycles >= r.counts.dyn_insts);
        assert!(r.total_energy() > 0.0);
        assert!(r.energy.icache > 0.0);
        assert!(r.energy.pipeline > 0.0);
        assert!(r.epi() > 0.0);
    }

    #[test]
    fn dts_reduces_core_energy() {
        let src = "void main() { u32 s = 1; for (u32 i = 0; i < 200; i++) { s = s * 3 + (i ^ s); } out(s); }";
        let mut m = lang::compile("t", src).unwrap();
        opt::simplify::run(&mut m);
        let p = backend::compile_module(&m, &CodegenOpts::default());
        let base = Simulator::new(&p, &SimConfig::default()).run().unwrap();
        let dts = Simulator::new(
            &p,
            &SimConfig {
                dts: true,
                ..Default::default()
            },
        )
        .run()
        .unwrap();
        assert_eq!(base.outputs, dts.outputs);
        assert!(
            dts.total_energy() < base.total_energy(),
            "DTS must reclaim energy: {} vs {}",
            dts.total_energy(),
            base.total_energy()
        );
    }
}
