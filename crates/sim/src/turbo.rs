//! The turbo simulation engine: predecoded handler-LUT dispatch with
//! basic-block fusion.
//!
//! [`Simulator::run`] lands here by default ([`crate::machine::Engine::Turbo`]).
//! Versus the reference engine (`machine.rs`), which runs one `match` over
//! `MInst` per dynamic instruction and accumulates f64 energy per step,
//! turbo decodes each *static* instruction exactly once
//! ([`TurboImage::build`]) into:
//!
//! * a **handler function pointer** plus a packed 8-byte operand record
//!   ([`TOp`]) — GRBA-emulator-style LUT dispatch, exactly one indirect
//!   call per instruction, with ALU/slice-ALU opcodes monomorphized via
//!   const generics so each handler is a straight-line function;
//! * **fused basic blocks**: straight-line instruction runs become
//!   block-level superinstructions. All deterministic per-instruction
//!   counters (base cycles, fetch slots, register-file units, ALU ops,
//!   event counts, *intra-block* load-use interlock stalls) are summed per
//!   block at predecode time ([`SActs`]) and applied once per block
//!   execution at end of run — the hot loop only tracks dynamic effects
//!   (cache stalls, taken conditional branches, misspeculation, the
//!   block-entry interlock);
//! * **static fetch classification**: within a block, instruction addresses
//!   are known, so whether a fetch slot stays on the previous slot's cache
//!   line is decided at predecode time. Same-line fetches accumulate in a
//!   pending counter flushed in O(1) via [`crate::cache::Cache::touch_hits`];
//!   real fetches run at their exact program position so the shared-L2
//!   access interleaving with data misses is preserved bit-exactly.
//!
//! **Misspeculation redirects** (`pc ← pc + Δ`) can land mid-block, in
//! skeleton code that is not a block leader. The engine then flushes the
//! static counters for the executed block prefix and falls back to
//! per-instruction execution ([`Simulator::run_fallback`]: the same
//! handlers plus each instruction's [`SActs`], with the interlock
//! taken dynamically) until control reaches a block leader again. The same
//! fallback covers `Ret` to a non-leader and fuel-tight block entries, so
//! fuel exhaustion surfaces after exactly the same instruction as in the
//! reference engine.
//!
//! **DTS** (RQ8's per-instruction-class clock/voltage scaling) keeps the
//! same block fusion. The image splits each block's static activity by
//! DTS class ([`ClassAcc`]); every dynamic cycle is charged at the site
//! that knows its instruction (block-entry fetch and interlock, real-fetch
//! events, a taken `Bc`, the misspeculation penalty, fallback steps). Two
//! remainders need no site: data-side stalls belong to memory
//! instructions, which all run at full path utilization, and the only
//! dynamic writes no site charges are `MovCc`'s, all in one class.
//!
//! Every run predecodes its own image; no state is shared between runs.
//!
//! `outputs`, `cycles`, `counts` and `activity` are bit-identical to the
//! reference engine; energy is folded once from integer activity
//! ([`crate::energy::EnergyModel::fold`], per DTS class when DTS is on) and
//! agrees with the reference within float-summation tolerance.
//! `tests/equivalence.rs` enforces the 2-way matrix.

use crate::cache::Hierarchy;
use crate::dts::{path_utilization, DtsModel, RAZOR_CYCLE_OVERHEAD};
use crate::energy::{Activity, EnergyBreakdown, EnergyModel};
use crate::machine::{alu_exec, eval_cond, flags_sub8, Counts, SimError, SimResult, Simulator};
use backend::Program;
use isa::inst::SAluOp;
use isa::{AluOp, Cond, MInst, MemWidth, Operand, Slice, SliceOperand, LR, SP};

/// Handler outcome: continue in-block, take the misspeculation redirect,
/// or fault (the `SimError` is parked in `Simulator::terr` so the return
/// stays register-sized — a `Result<Step, SimError>` would be returned by
/// memory on every dispatch).
enum Step {
    Next,
    Misspec,
    Fault,
}

type HR = Step;

/// A predecoded handler: architectural state changes + *dynamic* counters
/// only (cache stalls, conditional writes). Static counters live in
/// [`SActs`].
type Handler = for<'p> fn(&mut Simulator<'p>, &TOp) -> HR;

/// Packed operands for one instruction: register indices / packed slices /
/// condition codes in `a..d`, immediate or offset in `imm`. The meaning of
/// each field is fixed by the paired handler.
#[derive(Debug, Clone, Copy, Default)]
struct TOp {
    a: u8,
    b: u8,
    c: u8,
    d: u8,
    imm: u32,
}

const ZOP: TOp = TOp {
    a: 0,
    b: 0,
    c: 0,
    d: 0,
    imm: 0,
};

/// Pack a register slice into one byte: `(reg << 2) | byte`.
fn sl_pack(s: Slice) -> u8 {
    (s.reg.0 << 2) | s.byte
}

#[inline]
fn sl_get(regs: &[u32; 16], p: u8) -> u32 {
    (regs[((p >> 2) & 15) as usize] >> ((p & 3) * 8)) & 0xFF
}

#[inline]
fn sl_set(regs: &mut [u32; 16], p: u8, v: u32) {
    let sh = u32::from(p & 3) * 8;
    let mask = 0xFFu32 << sh;
    let r = &mut regs[((p >> 2) & 15) as usize];
    *r = (*r & !mask) | ((v & 0xFF) << sh);
}

/// Padded to 16 entries so [`cond_of`] can mask the code instead of
/// bounds-checking; only the first 10 slots are ever encoded.
const COND_TABLE: [Cond; 16] = [
    Cond::Eq,
    Cond::Ne,
    Cond::Lo,
    Cond::Ls,
    Cond::Hi,
    Cond::Hs,
    Cond::Lt,
    Cond::Le,
    Cond::Gt,
    Cond::Ge,
    Cond::Eq,
    Cond::Eq,
    Cond::Eq,
    Cond::Eq,
    Cond::Eq,
    Cond::Eq,
];

fn cond_code(c: Cond) -> u8 {
    COND_TABLE
        .iter()
        .position(|&x| x == c)
        .expect("cond in table") as u8
}

#[inline]
fn cond_of(code: u8) -> Cond {
    COND_TABLE[(code & 15) as usize]
}

const ALU_OPS: [AluOp; 16] = [
    AluOp::Add,
    AluOp::Adds,
    AluOp::Adc,
    AluOp::Sub,
    AluOp::Subs,
    AluOp::Sbc,
    AluOp::Sbcs,
    AluOp::And,
    AluOp::Orr,
    AluOp::Eor,
    AluOp::Lsl,
    AluOp::Lsr,
    AluOp::Asr,
    AluOp::Mul,
    AluOp::Udiv,
    AluOp::Sdiv,
];

fn alu_code(op: AluOp) -> usize {
    ALU_OPS.iter().position(|&x| x == op).expect("op in table")
}

const SALU_OPS: [SAluOp; 8] = [
    SAluOp::Add,
    SAluOp::Sub,
    SAluOp::And,
    SAluOp::Orr,
    SAluOp::Eor,
    SAluOp::Lsl,
    SAluOp::Lsr,
    SAluOp::Asr,
];

fn salu_code(op: SAluOp) -> usize {
    SALU_OPS.iter().position(|&x| x == op).expect("op in table")
}

/// Static (execution-count-deterministic) activity of one instruction:
/// everything the reference engine adds to `Activity`/`Counts`
/// unconditionally when the instruction runs. Summed per block at
/// predecode time; applied `block_exec_count` times at end of run.
/// Conditional events (speculative-op destination writes, `MovCc` writes,
/// taken `Bc`) are *excluded* and accounted dynamically.
#[derive(Debug, Clone, Copy, Default)]
struct SActs {
    cyc: u32,
    /// Slice-write units of a speculative op's destination write, which
    /// happens only when the op does not misspeculate. Not part of `rf_w`
    /// or [`SActs::apply`]: the handler counts the write in `Activity`,
    /// and DTS accounting charges it to the op's class.
    spec_w: u32,
    fetch_slots: u32,
    alu_word: u32,
    alu_slice: u32,
    spec_mon: u32,
    speccheck: u32,
    mul: u32,
    umull: u32,
    div: u32,
    extend: u32,
    rf_r: u32,
    rf_w: u32,
    r32: u32,
    r8: u32,
    l1d: u32,
    branches: u32,
    taken: u32,
    copies: u32,
    loads: u32,
    stores: u32,
    spill_loads: u32,
    spill_stores: u32,
}

impl SActs {
    fn rr(&mut self) {
        self.rf_r += 4;
        self.r32 += 1;
    }
    fn wr(&mut self) {
        self.rf_w += 4;
        self.r32 += 1;
    }
    fn rs(&mut self) {
        self.rf_r += 1;
        self.r8 += 1;
    }
    fn ws(&mut self) {
        self.rf_w += 1;
        self.r8 += 1;
    }
    fn rop(&mut self, o: &Operand) {
        if matches!(o, Operand::Reg(_)) {
            self.rr();
        }
    }
    fn rsop(&mut self, o: &SliceOperand) {
        if matches!(o, SliceOperand::Slice(_)) {
            self.rs();
        }
    }

    fn add(&mut self, o: &SActs) {
        self.cyc += o.cyc;
        self.spec_w += o.spec_w;
        self.fetch_slots += o.fetch_slots;
        self.alu_word += o.alu_word;
        self.alu_slice += o.alu_slice;
        self.spec_mon += o.spec_mon;
        self.speccheck += o.speccheck;
        self.mul += o.mul;
        self.umull += o.umull;
        self.div += o.div;
        self.extend += o.extend;
        self.rf_r += o.rf_r;
        self.rf_w += o.rf_w;
        self.r32 += o.r32;
        self.r8 += o.r8;
        self.l1d += o.l1d;
        self.branches += o.branches;
        self.taken += o.taken;
        self.copies += o.copies;
        self.loads += o.loads;
        self.stores += o.stores;
        self.spill_loads += o.spill_loads;
        self.spill_stores += o.spill_stores;
    }

    fn apply(&self, k: u64, act: &mut Activity, counts: &mut Counts) {
        act.cycles += u64::from(self.cyc) * k;
        act.fetch_slots += u64::from(self.fetch_slots) * k;
        act.alu_word_ops += u64::from(self.alu_word) * k;
        act.alu_slice_ops += u64::from(self.alu_slice) * k;
        act.spec_monitored_ops += u64::from(self.spec_mon) * k;
        act.speccheck_ops += u64::from(self.speccheck) * k;
        act.mul_ops += u64::from(self.mul) * k;
        act.umull_ops += u64::from(self.umull) * k;
        act.div_ops += u64::from(self.div) * k;
        act.extend_ops += u64::from(self.extend) * k;
        act.rf_read_units += u64::from(self.rf_r) * k;
        act.rf_write_units += u64::from(self.rf_w) * k;
        act.reg_accesses_32 += u64::from(self.r32) * k;
        act.reg_accesses_8 += u64::from(self.r8) * k;
        act.l1d_accesses += u64::from(self.l1d) * k;
        counts.branches += u64::from(self.branches) * k;
        counts.taken_branches += u64::from(self.taken) * k;
        counts.copies += u64::from(self.copies) * k;
        counts.loads += u64::from(self.loads) * k;
        counts.stores += u64::from(self.stores) * k;
        counts.spill_loads += u64::from(self.spill_loads) * k;
        counts.spill_stores += u64::from(self.spill_stores) * k;
    }

    /// The unconditional counter footprint of `inst` — the mirror of the
    /// reference engine's `exec`, split into its deterministic part.
    #[allow(clippy::too_many_lines)]
    fn of(inst: &MInst, slots: u8) -> SActs {
        let mut s = SActs {
            cyc: 1,
            fetch_slots: u32::from(slots),
            ..SActs::default()
        };
        match inst {
            MInst::Alu { op, src2, .. } => {
                s.rr();
                s.rop(src2);
                match op {
                    AluOp::Mul => {
                        s.mul += 1;
                        s.cyc += 2;
                    }
                    AluOp::Udiv | AluOp::Sdiv => {
                        s.div += 1;
                        s.cyc += 11;
                    }
                    _ => s.alu_word += 1,
                }
                s.wr();
            }
            MInst::MovImm { .. } | MInst::CSet { .. } => s.wr(),
            MInst::Mov { .. } => {
                s.copies += 1;
                s.rr();
                s.wr();
            }
            MInst::MovCc { .. } => {
                // Write is conditional on the flags: dynamic.
                s.copies += 1;
                s.rr();
            }
            MInst::Cmp { src2, .. } => {
                s.rr();
                s.rop(src2);
                s.alu_word += 1;
            }
            MInst::Umull { .. } => {
                s.rr();
                s.rr();
                s.mul += 1;
                s.umull += 1;
                s.cyc += 3;
                s.wr();
                s.wr();
            }
            MInst::Extend { .. } => {
                s.rr();
                s.alu_word += 1;
                s.extend += 1;
                s.wr();
            }
            MInst::LoadIdx { .. } => {
                s.loads += 1;
                s.rr();
                s.rs();
                s.l1d += 1;
                s.wr();
            }
            MInst::SLoadIdx { speculative, .. } => {
                s.loads += 1;
                s.rr();
                s.rs();
                s.l1d += 1;
                if *speculative {
                    s.spec_mon += 1;
                    s.spec_w += 1;
                } else {
                    s.ws();
                }
            }
            MInst::Load { spill, .. } => {
                s.loads += 1;
                if *spill {
                    s.spill_loads += 1;
                }
                s.rr();
                s.l1d += 1;
                s.wr();
            }
            MInst::Store { spill, .. } => {
                s.stores += 1;
                if *spill {
                    s.spill_stores += 1;
                }
                s.rr();
                s.rr();
                s.l1d += 1;
            }
            MInst::Push { regs } => {
                let k = regs.len() as u32;
                s.rf_r += 4 * k;
                s.r32 += k;
                s.l1d += k;
                s.cyc += k;
                s.stores += k;
            }
            MInst::Pop { regs } => {
                let k = regs.len() as u32;
                s.rf_w += 4 * k;
                s.r32 += k;
                s.l1d += k;
                s.cyc += k;
                s.loads += k;
            }
            MInst::B { .. } => {
                s.branches += 1;
                s.taken += 1;
                s.cyc += 2;
            }
            MInst::Bc { .. } => {
                s.branches += 1; // taken + 2 cycles: dynamic
            }
            MInst::Bl { .. } => {
                s.branches += 1;
                s.taken += 1;
                s.cyc += 2;
                s.wr();
            }
            MInst::Ret => {
                s.branches += 1;
                s.taken += 1;
                s.cyc += 2;
                s.rr();
            }
            MInst::Out { .. } => s.rr(),
            MInst::Halt | MInst::Nop => {}
            MInst::SAlu {
                op,
                src2,
                speculative,
                ..
            } => {
                s.rs();
                s.rsop(src2);
                s.alu_slice += 1;
                if *speculative {
                    s.spec_mon += 1;
                }
                // Speculative Add/Sub/Lsl may misspeculate and skip the
                // destination write; all other forms always write.
                if *speculative && matches!(op, SAluOp::Add | SAluOp::Sub | SAluOp::Lsl) {
                    s.spec_w += 1;
                } else {
                    s.ws();
                }
            }
            MInst::SCmp { src2, .. } => {
                s.rs();
                s.rsop(src2);
                s.alu_slice += 1;
            }
            MInst::SLoadSpec { .. } => {
                s.loads += 1;
                s.rr();
                s.l1d += 1;
                s.spec_mon += 1;
                s.spec_w += 1;
            }
            MInst::SLoad { spill, .. } => {
                s.loads += 1;
                if *spill {
                    s.spill_loads += 1;
                }
                s.rr();
                s.l1d += 1;
                s.ws();
            }
            MInst::SStore { spill, .. } => {
                s.stores += 1;
                if *spill {
                    s.spill_stores += 1;
                }
                s.rs();
                s.rr();
                s.l1d += 1;
            }
            MInst::SExtend { .. } => {
                s.rs();
                s.alu_slice += 1;
                s.wr();
            }
            MInst::STrunc { speculative, .. } => {
                s.rr();
                if *speculative {
                    s.spec_mon += 1;
                    s.spec_w += 1;
                } else {
                    s.ws();
                }
            }
            MInst::SMov { .. } => {
                s.copies += 1;
                s.rs();
                s.ws();
            }
            MInst::SMovImm { .. } => s.ws(),
            MInst::SetDelta { .. } => {}
            MInst::SpecCheck { .. } => {
                s.rr();
                s.spec_mon += 1;
                s.speccheck += 1;
            }
        }
        s
    }
}

/// Per-DTS-class activity: enough to reconstruct the class's core energy
/// (ALU + register file + misspeculation detectors) and scaled pipeline
/// energy at end of run. Integer counters only, so the per-class totals
/// do not depend on the order in which blocks, prefixes and fallback steps
/// contribute them.
#[derive(Debug, Clone, Copy, Default)]
struct ClassAcc {
    cyc: u64,
    rf_read_units: u64,
    rf_write_units: u64,
    alu_word_ops: u64,
    extend_ops: u64,
    alu_slice_ops: u64,
    spec_monitored_ops: u64,
    speccheck_ops: u64,
    mul_ops: u64,
    umull_ops: u64,
    div_ops: u64,
}

impl ClassAcc {
    /// One execution of an instruction with static activity `s`; its
    /// speculative destination write counts when `wrote` is set.
    fn of(s: &SActs, wrote: bool) -> ClassAcc {
        ClassAcc {
            cyc: u64::from(s.cyc),
            rf_read_units: u64::from(s.rf_r),
            rf_write_units: u64::from(s.rf_w) + if wrote { u64::from(s.spec_w) } else { 0 },
            alu_word_ops: u64::from(s.alu_word),
            extend_ops: u64::from(s.extend),
            alu_slice_ops: u64::from(s.alu_slice),
            spec_monitored_ops: u64::from(s.spec_mon),
            speccheck_ops: u64::from(s.speccheck),
            mul_ops: u64::from(s.mul),
            umull_ops: u64::from(s.umull),
            div_ops: u64::from(s.div),
        }
    }

    /// Adds `k` copies of `o`.
    fn add(&mut self, o: &ClassAcc, k: u64) {
        self.cyc += o.cyc * k;
        self.rf_read_units += o.rf_read_units * k;
        self.rf_write_units += o.rf_write_units * k;
        self.alu_word_ops += o.alu_word_ops * k;
        self.extend_ops += o.extend_ops * k;
        self.alu_slice_ops += o.alu_slice_ops * k;
        self.spec_monitored_ops += o.spec_monitored_ops * k;
        self.speccheck_ops += o.speccheck_ops * k;
        self.mul_ops += o.mul_ops * k;
        self.umull_ops += o.umull_ops * k;
        self.div_ops += o.div_ops * k;
    }

    /// Core (ALU + regfile + detector) energy of this class — the same
    /// per-event costs the reference engine charges inline.
    fn core_energy(&self, em: &EnergyModel) -> f64 {
        self.rf_read_units as f64 * em.rf_slice_read
            + self.rf_write_units as f64 * em.rf_slice_write
            + (self.alu_word_ops - self.extend_ops) as f64 * 4.0 * em.alu_slice
            + self.extend_ops as f64 * 2.0 * em.alu_slice
            + self.alu_slice_ops as f64 * em.alu_slice
            + (self.spec_monitored_ops - self.speccheck_ops) as f64 * em.misspec_detect
            + self.mul_ops as f64 * em.mul
            + self.umull_ops as f64 * 0.5 * em.mul
            + self.div_ops as f64 * em.div
    }
}

/// The DTS side of a [`TurboImage`], built only for `dts: true` runs.
struct DtsTables {
    /// pc → DTS class ([`DtsModel::precompute`]'s first-appearance order,
    /// which is also the order the per-class energies are folded in).
    class: Vec<u8>,
    /// Class → core-energy scale.
    scales: Vec<f64>,
    /// Each block's static activity split by class, as `(class, activity)`
    /// entries; block `b` owns `split[split_at[b]..split_at[b + 1]]`. The
    /// split counts every speculative destination write: a block that
    /// runs to its end misspeculated nowhere.
    split: Vec<(u8, ClassAcc)>,
    split_at: Vec<u32>,
    /// Class of the full-utilization instructions. Every data access
    /// belongs to one of them (`dts::path_utilization`), so data-side
    /// stalls land here without a per-access class lookup.
    full: Option<u8>,
    /// Class of `MovCc`, whose conditional write is the one dynamic write
    /// no run-loop site charges.
    movcc: Option<u8>,
}

impl DtsTables {
    fn build(p: &Program, blocks: &[TBlock], sacts: &[SActs]) -> DtsTables {
        let (class, scales) = DtsModel::default().precompute(&p.insts);
        let class_of = |pred: fn(&MInst) -> bool| p.insts.iter().position(pred).map(|pc| class[pc]);
        let full = class_of(|i| path_utilization(i) >= 1.0);
        let movcc = class_of(|i| matches!(i, MInst::MovCc { .. }));
        let mut split: Vec<(u8, ClassAcc)> = Vec::new();
        let mut split_at = Vec::with_capacity(blocks.len() + 1);
        for b in blocks {
            let first = split.len();
            split_at.push(first as u32);
            for pc in b.start..b.start + b.n as usize {
                let mut acc = ClassAcc::of(&sacts[pc], true);
                if pc > b.start && interlocked(p, pc) {
                    acc.cyc += 1;
                }
                let c = class[pc];
                match split[first..].iter_mut().find(|(k, _)| *k == c) {
                    Some((_, a)) => a.add(&acc, 1),
                    None => split.push((c, acc)),
                }
            }
        }
        split_at.push(split.len() as u32);
        DtsTables {
            class,
            scales,
            split,
            split_at,
            full,
            movcc,
        }
    }

    /// Charges what no run-loop site charged, once `act` is complete: the
    /// leftover cycles (data-side stalls) to the full-utilization class and
    /// the leftover register writes (`MovCc`'s) to `MovCc`'s class.
    fn charge_remainders(&self, accs: &mut [ClassAcc], act: &Activity) {
        let sum = |f: fn(&ClassAcc) -> u64| accs.iter().map(f).sum::<u64>();
        let stalls = act.cycles - sum(|a| a.cyc);
        let movcc_writes = act.rf_write_units - sum(|a| a.rf_write_units);
        debug_assert_eq!(act.rf_read_units, sum(|a| a.rf_read_units));
        debug_assert_eq!(act.alu_word_ops, sum(|a| a.alu_word_ops));
        debug_assert_eq!(act.extend_ops, sum(|a| a.extend_ops));
        debug_assert_eq!(act.alu_slice_ops, sum(|a| a.alu_slice_ops));
        debug_assert_eq!(act.spec_monitored_ops, sum(|a| a.spec_monitored_ops));
        debug_assert_eq!(act.speccheck_ops, sum(|a| a.speccheck_ops));
        debug_assert_eq!(act.mul_ops, sum(|a| a.mul_ops));
        debug_assert_eq!(act.umull_ops, sum(|a| a.umull_ops));
        debug_assert_eq!(act.div_ops, sum(|a| a.div_ops));
        if stalls > 0 {
            let c = self.full.expect("data stalls without a memory instruction");
            accs[usize::from(c)].cyc += stalls;
        }
        if movcc_writes > 0 {
            let c = self
                .movcc
                .expect("unattributed register writes without a MovCc");
            accs[usize::from(c)].rf_write_units += movcc_writes;
        }
    }
}

/// Per-class clock/voltage scaling: pipeline energy is scaled per class
/// (with the RazorII recovery overhead), and the reclaimed core energy is
/// deducted from ALU/regfile in proportion to their totals — the same
/// aggregate discount the reference engine applies instruction by
/// instruction. Classes fold in [`DtsTables::class`] order.
fn fold_dts(energy: &mut EnergyBreakdown, accs: &[ClassAcc], scales: &[f64], em: &EnergyModel) {
    let mut pipe = 0.0;
    let mut discount = 0.0;
    for (acc, &scale) in accs.iter().zip(scales) {
        pipe += acc.cyc as f64 * em.pipeline_cycle * (1.0 + RAZOR_CYCLE_OVERHEAD) * scale;
        discount += acc.core_energy(em) * (1.0 - scale);
    }
    energy.pipeline = pipe;
    let total = energy.alu + energy.regfile;
    if total > 0.0 && discount > 0.0 {
        let alu_share = energy.alu / total;
        energy.alu -= discount * alu_share;
        energy.regfile -= discount * (1.0 - alu_share);
    }
}

/// Whether `pc`, executed straight after `pc - 1`, stalls one cycle on a
/// load-use interlock (a word load feeding its read set).
fn interlocked(p: &Program, pc: usize) -> bool {
    p.pre[pc - 1].load_dest_mask & p.pre[pc].read_mask != 0
}

/// Block terminator, executed inline by the run loop (never via handler).
///
/// Successor fields are *block indices*, resolved at predecode time so the
/// hot loop chains block to block without per-block `block_of`/leader
/// lookups (the block pass stores pcs here, then rewrites them — see the
/// successor-resolution pass in [`TurboImage::build`]). `Bl::ret_pc` stays
/// a pc: it is the architectural value written to the link register.
#[derive(Debug, Clone, Copy)]
enum Term {
    /// Fall through to the next block.
    Fall {
        next: u32,
    },
    B {
        target: u32,
    },
    Bc {
        cond: Cond,
        target: u32,
        next: u32,
    },
    Bl {
        target: u32,
        ret_pc: u32,
    },
    Ret,
    /// Pseudo-block for an out-of-range successor pc (held in `start`):
    /// resyncs through the per-instruction fallback, which faults exactly
    /// like the reference engine.
    Oob,
    Halt,
}

/// One fused basic block: the contiguous instruction span `[start,
/// start+n)`, with its terminator (if a branch) executed inline.
#[derive(Debug, Clone)]
struct TBlock {
    start: usize,
    /// Dynamic instructions per full execution (= span length; 0 for Halt).
    n: u32,
    /// Instructions dispatched through handlers (`n` minus an inline
    /// branch terminator): the block dispatches
    /// `code[start..start + n_handlers]`.
    n_handlers: u32,
    /// Interlock read mask of the first instruction (the only interlock
    /// edge that crosses a block boundary).
    entry_read_mask: u32,
    /// `load_dest_mask` of the last instruction, carried to the next block.
    exit_load_mask: u32,
    /// Fetch address of the first instruction (avoids a `p.addrs` load in
    /// the hot loop).
    a0: u32,
    /// This block's slice of [`TurboImage::revs`]: the statically known
    /// real (line-crossing) I-fetches past the entry sub-slot.
    rev_start: u32,
    rev_len: u32,
    /// Same-line touches after the last real event (the whole block past
    /// its entry sub-slot when `rev_len == 0`).
    tail_pend: u32,
    term: Term,
}

/// One statically classified real (line-crossing) I-fetch inside a block.
/// Everything before the block's first sub-slot is dynamic; everything
/// after is decided at predecode time.
#[derive(Debug, Clone, Copy)]
struct RealEv {
    /// Instruction index relative to the block start. The fetch fires
    /// before that instruction's handler (fetch precedes execute).
    k: u32,
    addr: u32,
    /// Same-line touches since the previous real event (or block entry).
    pend_before: u32,
    /// Touches from block entry up to just before this fetch — the
    /// misspeculation path uses it to reconstruct the pending count.
    cum_before: u32,
}

/// The predecoded program image, built once per run by [`TurboImage::build`].
struct TurboImage {
    /// pc → (handler, packed operands), paired so each dispatch pulls one
    /// 16-byte entry instead of touching two arrays. A block dispatches
    /// `code[start..start + n_handlers]`; the per-instruction fallback
    /// dispatches `code[pc]`.
    code: Vec<(Handler, TOp)>,
    /// pc → static activity of one execution, intra-block interlock not
    /// included (the fallback takes the interlock dynamically).
    sacts: Vec<SActs>,
    blocks: Vec<TBlock>,
    /// Per-block sum of the span's static activity, intra-block interlock
    /// stalls included (parallel to `blocks`, applied `executions` times at
    /// end of run). Kept out of [`TBlock`] so the dispatch loop's per-block
    /// state stays small.
    tots: Vec<SActs>,
    /// pc → owning block index.
    block_of: Vec<u32>,
    /// All blocks' real-fetch events, flat (see [`TBlock::rev_start`]).
    revs: Vec<RealEv>,
    /// pc → same-line touches from the owning block's entry through the
    /// end of this instruction's sub-slots (entry sub-slot excluded).
    /// Misspeculation redirects use `cumtouch[ip] - consumed` to batch the
    /// executed prefix's remaining touches.
    cumtouch: Vec<u32>,
    line_shift: u32,
    /// Per-class split of the static activity; `Some` iff built for DTS.
    dts: Option<DtsTables>,
}

impl TurboImage {
    /// Predecodes `p`: one handler + packed operands per instruction,
    /// block structure from leaders (entry, function entries, branch
    /// targets, fall-throughs after control flow, `Halt`), per-block
    /// static activity with intra-block interlock stalls folded in, and
    /// static fetch-line classification. With `dts` set it also splits
    /// that activity by DTS class.
    #[allow(clippy::too_many_lines)]
    fn build(p: &Program, dts: bool) -> TurboImage {
        let len = p.insts.len();
        assert_eq!(p.pre.len(), len, "stale predecode table");
        let line = Hierarchy::default().l1i.line();
        assert!(line.is_power_of_two(), "line size must be 2^k");
        let line_shift = line.trailing_zeros();

        // --- per-instruction decode -------------------------------------
        let mut code: Vec<(Handler, TOp)> = Vec::with_capacity(len);
        let mut sacts: Vec<SActs> = Vec::with_capacity(len);
        for (i, inst) in p.insts.iter().enumerate() {
            code.push(decode(i, inst));
            sacts.push(SActs::of(inst, p.pre[i].slots));
        }

        // --- leaders -----------------------------------------------------
        let mut leader = vec![false; len];
        let mark = |j: usize, leader: &mut Vec<bool>| {
            if j < len {
                leader[j] = true;
            }
        };
        mark(p.entry, &mut leader);
        for &f in &p.func_entries {
            mark(f, &mut leader);
        }
        for (i, inst) in p.insts.iter().enumerate() {
            match inst {
                MInst::B { target } | MInst::Bl { target } | MInst::Bc { target, .. } => {
                    mark(*target, &mut leader);
                    mark(i + 1, &mut leader);
                }
                MInst::Ret => mark(i + 1, &mut leader),
                MInst::Halt => {
                    mark(i, &mut leader);
                    mark(i + 1, &mut leader);
                }
                _ => {}
            }
        }

        // --- blocks ------------------------------------------------------
        let mut blocks = Vec::new();
        let mut tots = Vec::new();
        let mut block_of = vec![0u32; len];
        let mut i = 0;
        while i < len {
            let start = i;
            let (span, term) = if matches!(p.insts[start], MInst::Halt) {
                (1, Term::Halt)
            } else {
                let mut j = start;
                loop {
                    // Successor fields hold *pcs* here; the resolution pass
                    // below rewrites them to block indices.
                    let t = match &p.insts[j] {
                        MInst::B { target } => Some(Term::B {
                            target: *target as u32,
                        }),
                        MInst::Bc { cond, target } => Some(Term::Bc {
                            cond: *cond,
                            target: *target as u32,
                            next: (j + 1) as u32,
                        }),
                        MInst::Bl { target } => Some(Term::Bl {
                            target: *target as u32,
                            ret_pc: (j + 1) as u32,
                        }),
                        MInst::Ret => Some(Term::Ret),
                        _ => None,
                    };
                    if let Some(t) = t {
                        break (j + 1 - start, t);
                    }
                    j += 1;
                    if j >= len || leader[j] {
                        break (j - start, Term::Fall { next: j as u32 });
                    }
                }
            };
            let (n, n_handlers) = match term {
                Term::Halt => (0, 0),
                Term::Fall { .. } => (span as u32, span as u32),
                _ => (span as u32, span as u32 - 1),
            };
            let mut tot = SActs::default();
            for (pc, sa) in sacts.iter().enumerate().skip(start).take(n as usize) {
                tot.add(sa);
                // Intra-block interlock: a word load feeding the very next
                // instruction's read set stalls one cycle.
                if pc > start && interlocked(p, pc) {
                    tot.cyc += 1;
                }
            }
            let end = start + span;
            let bi = blocks.len() as u32;
            block_of[start..end].fill(bi);
            tots.push(tot);
            blocks.push(TBlock {
                start,
                n,
                n_handlers,
                entry_read_mask: p.pre[start].read_mask,
                exit_load_mask: p.pre[end - 1].load_dest_mask,
                a0: p.addrs[start],
                rev_start: 0, // filled by the fetch pass below
                rev_len: 0,
                tail_pend: 0,
                term,
            });
            i = end;
        }

        // --- static fetch classification ---------------------------------
        // Walk each block's sub-slot stream in program order. The entry
        // sub-slot is skipped (classified against the live line buffer at
        // run time); every other sub-slot either crosses an I-line (a real
        // fetch event, position and address known now) or is a same-line
        // touch counted into the surrounding event's `pend_before` /
        // the block's `tail_pend`.
        let mut revs: Vec<RealEv> = Vec::new();
        let mut cumtouch = vec![0u32; len];
        for b in &mut blocks {
            b.rev_start = revs.len() as u32;
            let mut cum = 0u32;
            let mut pend = 0u32;
            for k in 0..b.n as usize {
                let pc = b.start + k;
                let addr = p.addrs[pc];
                if k > 0 {
                    let prev = pc - 1;
                    let prev_slot = p.addrs[prev] + if p.pre[prev].two_slot { 4 } else { 0 };
                    if addr >> line_shift != prev_slot >> line_shift {
                        revs.push(RealEv {
                            k: k as u32,
                            addr,
                            pend_before: pend,
                            cum_before: cum,
                        });
                        pend = 0;
                    } else {
                        cum += 1;
                        pend += 1;
                    }
                }
                if p.pre[pc].two_slot {
                    if (addr + 4) >> line_shift != addr >> line_shift {
                        revs.push(RealEv {
                            k: k as u32,
                            addr: addr + 4,
                            pend_before: pend,
                            cum_before: cum,
                        });
                        pend = 0;
                    } else {
                        cum += 1;
                        pend += 1;
                    }
                }
                cumtouch[pc] = cum;
            }
            b.rev_len = revs.len() as u32 - b.rev_start;
            b.tail_pend = pend;
        }

        // --- successor resolution ----------------------------------------
        // Rewrite terminator successors from pcs to block indices. Every
        // in-range successor of a terminator is a leader by construction
        // (branch targets and post-branch pcs are marked above); the rare
        // out-of-range successor routes through an `Oob` pseudo-block so
        // the hot loop never needs a bounds or leader check.
        fn resolve(
            pc: u32,
            len: usize,
            block_of: &[u32],
            blocks: &mut Vec<TBlock>,
            tots: &mut Vec<SActs>,
        ) -> u32 {
            if (pc as usize) < len {
                let bi = block_of[pc as usize];
                debug_assert_eq!(
                    blocks[bi as usize].start, pc as usize,
                    "successor not a leader"
                );
                return bi;
            }
            if let Some(bi) = blocks
                .iter()
                .position(|b| matches!(b.term, Term::Oob) && b.start == pc as usize)
            {
                return bi as u32;
            }
            let bi = blocks.len() as u32;
            blocks.push(TBlock {
                start: pc as usize,
                n: 0,
                n_handlers: 0,
                entry_read_mask: 0,
                exit_load_mask: 0,
                a0: 0,
                rev_start: 0,
                rev_len: 0,
                tail_pend: 0,
                term: Term::Oob,
            });
            tots.push(SActs::default());
            bi
        }
        for i in 0..blocks.len() {
            blocks[i].term = match blocks[i].term {
                Term::Fall { next } => Term::Fall {
                    next: resolve(next, len, &block_of, &mut blocks, &mut tots),
                },
                Term::B { target } => Term::B {
                    target: resolve(target, len, &block_of, &mut blocks, &mut tots),
                },
                Term::Bc { cond, target, next } => Term::Bc {
                    cond,
                    target: resolve(target, len, &block_of, &mut blocks, &mut tots),
                    next: resolve(next, len, &block_of, &mut blocks, &mut tots),
                },
                Term::Bl { target, ret_pc } => Term::Bl {
                    target: resolve(target, len, &block_of, &mut blocks, &mut tots),
                    ret_pc,
                },
                t @ (Term::Ret | Term::Oob | Term::Halt) => t,
            };
        }

        let dts = dts.then(|| DtsTables::build(p, &blocks, &sacts));
        TurboImage {
            code,
            sacts,
            blocks,
            tots,
            block_of,
            revs,
            cumtouch,
            line_shift,
            dts,
        }
    }

    #[inline]
    fn is_leader(&self, pc: usize) -> bool {
        self.blocks[self.block_of[pc] as usize].start == pc
    }
}

// --- handlers ---------------------------------------------------------------

fn h_nop(_s: &mut Simulator<'_>, _o: &TOp) -> HR {
    Step::Next
}

fn h_alu_rr<const OP: usize>(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let a = s.regs[(o.b & 15) as usize];
    let b = s.regs[(o.c & 15) as usize];
    let (r, fl) = alu_exec(ALU_OPS[OP], a, b, s.flags);
    if ALU_OPS[OP].sets_flags() {
        s.flags = fl;
    }
    s.regs[(o.a & 15) as usize] = r;
    Step::Next
}

fn h_alu_ri<const OP: usize>(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let a = s.regs[(o.b & 15) as usize];
    let (r, fl) = alu_exec(ALU_OPS[OP], a, o.imm, s.flags);
    if ALU_OPS[OP].sets_flags() {
        s.flags = fl;
    }
    s.regs[(o.a & 15) as usize] = r;
    Step::Next
}

fn h_mov_imm(s: &mut Simulator<'_>, o: &TOp) -> HR {
    s.regs[(o.a & 15) as usize] = o.imm;
    Step::Next
}

fn h_mov(s: &mut Simulator<'_>, o: &TOp) -> HR {
    s.regs[(o.a & 15) as usize] = s.regs[(o.b & 15) as usize];
    Step::Next
}

fn h_mov_cc(s: &mut Simulator<'_>, o: &TOp) -> HR {
    if eval_cond(cond_of(o.c), s.flags) {
        s.act.rf_write_units += 4;
        s.act.reg_accesses_32 += 1;
        s.regs[(o.a & 15) as usize] = s.regs[(o.b & 15) as usize];
    }
    Step::Next
}

fn h_cmp_rr(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let a = s.regs[(o.a & 15) as usize];
    let b = s.regs[(o.b & 15) as usize];
    s.flags = alu_exec(AluOp::Subs, a, b, s.flags).1;
    Step::Next
}

fn h_cmp_ri(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let a = s.regs[(o.a & 15) as usize];
    s.flags = alu_exec(AluOp::Subs, a, o.imm, s.flags).1;
    Step::Next
}

fn h_cset(s: &mut Simulator<'_>, o: &TOp) -> HR {
    s.regs[(o.a & 15) as usize] = u32::from(eval_cond(cond_of(o.b), s.flags));
    Step::Next
}

fn h_umull(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let a = u64::from(s.regs[(o.c & 15) as usize]);
    let b = u64::from(s.regs[(o.d & 15) as usize]);
    let r = a * b;
    s.regs[(o.a & 15) as usize] = r as u32;
    s.regs[(o.b & 15) as usize] = (r >> 32) as u32;
    Step::Next
}

/// Extend variants: 0 = zext8, 1 = sext8, 2 = zext16, 3 = sext16, 4 = word.
fn h_extend<const V: usize>(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let v = s.regs[(o.b & 15) as usize];
    let r = match V {
        0 => v & 0xFF,
        1 => v as u8 as i8 as i32 as u32,
        2 => v & 0xFFFF,
        3 => v as u16 as i16 as i32 as u32,
        _ => v,
    };
    s.regs[(o.a & 15) as usize] = r;
    Step::Next
}

fn h_load<const W: usize>(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let addr = s.regs[(o.b & 15) as usize].wrapping_add(o.imm);
    if !s.turbo_data(addr, false) {
        return Step::Fault;
    }
    let Some(v) = mem_load::<W>(s, addr) else {
        return s.tfault(addr);
    };
    s.regs[(o.a & 15) as usize] = v;
    Step::Next
}

fn h_store<const W: usize>(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let v = s.regs[(o.a & 15) as usize];
    let addr = s.regs[(o.b & 15) as usize].wrapping_add(o.imm);
    if !s.turbo_data(addr, true) {
        return Step::Fault;
    }
    if mem_store::<W>(s, addr, v).is_none() {
        return s.tfault(addr);
    }
    Step::Next
}

fn h_load_idx<const W: usize>(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let base = s.regs[(o.b & 15) as usize];
    let idx = sl_get(&s.regs, o.c);
    let addr = base.wrapping_add(idx << o.d);
    if !s.turbo_data(addr, false) {
        return Step::Fault;
    }
    let Some(v) = mem_load::<W>(s, addr) else {
        return s.tfault(addr);
    };
    s.regs[(o.a & 15) as usize] = v;
    Step::Next
}

fn h_sload_idx(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let base = s.regs[(o.b & 15) as usize];
    let idx = sl_get(&s.regs, o.c);
    let addr = base.wrapping_add(idx << o.d);
    if !s.turbo_data(addr, false) {
        return Step::Fault;
    }
    let Some(v) = mem_load::<0>(s, addr) else {
        return s.tfault(addr);
    };
    sl_set(&mut s.regs, o.a, v);
    Step::Next
}

fn h_sload_idx_spec(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let base = s.regs[(o.b & 15) as usize];
    let idx = sl_get(&s.regs, o.c);
    let addr = base.wrapping_add(idx << o.d);
    if !s.turbo_data(addr, false) {
        return Step::Fault;
    }
    let Some(v) = mem_load::<2>(s, addr) else {
        return s.tfault(addr);
    };
    if v > 0xFF {
        return Step::Misspec;
    }
    s.act.rf_write_units += 1;
    s.act.reg_accesses_8 += 1;
    sl_set(&mut s.regs, o.a, v);
    Step::Next
}

/// Push with the register list packed into the operand word at predecode:
/// `imm` holds up to eight 4-bit register indices in store order, `a` the
/// count. Lists longer than eight take [`h_push_slow`].
fn h_push(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let mut sp = s.regs[SP.index()];
    let mut bits = o.imm;
    for _ in 0..o.a {
        sp = sp.wrapping_sub(4);
        let v = s.regs[(bits & 0xF) as usize];
        bits >>= 4;
        if !s.turbo_data(sp, true) {
            return Step::Fault;
        }
        if mem_store::<2>(s, sp, v).is_none() {
            return s.tfault(sp);
        }
    }
    s.regs[SP.index()] = sp;
    Step::Next
}

fn h_push_slow(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let pc = o.imm as usize;
    let p = s.p;
    let MInst::Push { regs } = &p.insts[pc] else {
        unreachable!("handler paired at decode")
    };
    let mut sp = s.regs[SP.index()];
    for r in regs.iter().rev() {
        sp = sp.wrapping_sub(4);
        let v = s.regs[r.index()];
        if !s.turbo_data(sp, true) {
            return Step::Fault;
        }
        if mem_store::<2>(s, sp, v).is_none() {
            return s.tfault(sp);
        }
    }
    s.regs[SP.index()] = sp;
    Step::Next
}

/// Pop counterpart of [`h_push`]: `imm` holds the indices in load order.
fn h_pop(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let mut sp = s.regs[SP.index()];
    let mut bits = o.imm;
    for _ in 0..o.a {
        if !s.turbo_data(sp, false) {
            return Step::Fault;
        }
        let Some(v) = mem_load::<2>(s, sp) else {
            return s.tfault(sp);
        };
        s.regs[(bits & 0xF) as usize] = v;
        bits >>= 4;
        sp = sp.wrapping_add(4);
    }
    s.regs[SP.index()] = sp;
    Step::Next
}

fn h_pop_slow(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let pc = o.imm as usize;
    let p = s.p;
    let MInst::Pop { regs } = &p.insts[pc] else {
        unreachable!("handler paired at decode")
    };
    let mut sp = s.regs[SP.index()];
    for r in regs.iter() {
        if !s.turbo_data(sp, false) {
            return Step::Fault;
        }
        let Some(v) = mem_load::<2>(s, sp) else {
            return s.tfault(sp);
        };
        s.regs[r.index()] = v;
        sp = sp.wrapping_add(4);
    }
    s.regs[SP.index()] = sp;
    Step::Next
}

/// Packs up to eight register indices into 4-bit nibbles (low nibble
/// first, i.e. the order the consuming handler walks them). Returns `None`
/// for longer lists, which keep the slow MInst-walking handlers.
fn pack_regs(regs: impl Iterator<Item = usize>) -> Option<(u32, u8)> {
    let mut imm = 0u32;
    let mut count = 0u8;
    for r in regs {
        if count == 8 {
            return None;
        }
        debug_assert!(r < 16, "register index fits a nibble");
        imm |= (r as u32) << (4 * count);
        count += 1;
    }
    Some((imm, count))
}

fn h_out(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let v = s.regs[(o.a & 15) as usize];
    s.outputs.push(v);
    Step::Next
}

/// Slice-ALU value + "would misspeculate if speculative" (Table 1).
#[inline]
fn salu_val<const OP: usize>(a: u32, b: u32) -> (u32, bool) {
    match OP {
        0 => {
            let r = a + b;
            (r & 0xFF, r > 0xFF)
        }
        1 => (a.wrapping_sub(b) & 0xFF, a < b),
        2 => (a & b, false),
        3 => (a | b, false),
        4 => (a ^ b, false),
        5 => {
            if b >= 8 {
                (0, a != 0)
            } else {
                let r = a << b;
                (r & 0xFF, r > 0xFF)
            }
        }
        6 => (if b >= 8 { 0 } else { a >> b }, false),
        7 => {
            let sa = (a as u8 as i8) >> b.min(7);
            (u32::from(sa as u8), false)
        }
        _ => unreachable!(),
    }
}

fn h_salu_ss<const OP: usize>(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let a = sl_get(&s.regs, o.b);
    let b = sl_get(&s.regs, o.c);
    let (r, _) = salu_val::<OP>(a, b);
    sl_set(&mut s.regs, o.a, r);
    Step::Next
}

fn h_salu_si<const OP: usize>(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let a = sl_get(&s.regs, o.b);
    let (r, _) = salu_val::<OP>(a, o.imm);
    sl_set(&mut s.regs, o.a, r);
    Step::Next
}

fn h_salu_spec_ss<const OP: usize>(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let a = sl_get(&s.regs, o.b);
    let b = sl_get(&s.regs, o.c);
    let (r, mis) = salu_val::<OP>(a, b);
    if mis {
        return Step::Misspec;
    }
    s.act.rf_write_units += 1;
    s.act.reg_accesses_8 += 1;
    sl_set(&mut s.regs, o.a, r);
    Step::Next
}

fn h_salu_spec_si<const OP: usize>(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let a = sl_get(&s.regs, o.b);
    let (r, mis) = salu_val::<OP>(a, o.imm);
    if mis {
        return Step::Misspec;
    }
    s.act.rf_write_units += 1;
    s.act.reg_accesses_8 += 1;
    sl_set(&mut s.regs, o.a, r);
    Step::Next
}

fn h_scmp_s(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let a = sl_get(&s.regs, o.a);
    let b = sl_get(&s.regs, o.b);
    s.flags = flags_sub8(a, b);
    Step::Next
}

fn h_scmp_i(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let a = sl_get(&s.regs, o.a);
    s.flags = flags_sub8(a, o.imm);
    Step::Next
}

fn h_sload_spec(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let addr = s.regs[(o.b & 15) as usize].wrapping_add(o.imm);
    if !s.turbo_data(addr, false) {
        return Step::Fault;
    }
    let Some(v) = mem_load::<2>(s, addr) else {
        return s.tfault(addr);
    };
    if v > 0xFF {
        return Step::Misspec;
    }
    s.act.rf_write_units += 1;
    s.act.reg_accesses_8 += 1;
    sl_set(&mut s.regs, o.a, v);
    Step::Next
}

fn h_sload(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let addr = s.regs[(o.b & 15) as usize].wrapping_add(o.imm);
    if !s.turbo_data(addr, false) {
        return Step::Fault;
    }
    let Some(v) = mem_load::<0>(s, addr) else {
        return s.tfault(addr);
    };
    sl_set(&mut s.regs, o.a, v);
    Step::Next
}

fn h_sstore(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let v = sl_get(&s.regs, o.a);
    let addr = s.regs[(o.b & 15) as usize].wrapping_add(o.imm);
    if !s.turbo_data(addr, true) {
        return Step::Fault;
    }
    if mem_store::<0>(s, addr, v).is_none() {
        return s.tfault(addr);
    }
    Step::Next
}

fn h_sextend<const SIGNED: bool>(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let v = sl_get(&s.regs, o.b);
    s.regs[(o.a & 15) as usize] = if SIGNED {
        v as u8 as i8 as i32 as u32
    } else {
        v
    };
    Step::Next
}

fn h_strunc(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let v = s.regs[(o.b & 15) as usize];
    sl_set(&mut s.regs, o.a, v & 0xFF);
    Step::Next
}

fn h_strunc_spec(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let v = s.regs[(o.b & 15) as usize];
    if v > 0xFF {
        return Step::Misspec;
    }
    s.act.rf_write_units += 1;
    s.act.reg_accesses_8 += 1;
    sl_set(&mut s.regs, o.a, v & 0xFF);
    Step::Next
}

fn h_smov(s: &mut Simulator<'_>, o: &TOp) -> HR {
    let v = sl_get(&s.regs, o.b);
    sl_set(&mut s.regs, o.a, v);
    Step::Next
}

fn h_smov_imm(s: &mut Simulator<'_>, o: &TOp) -> HR {
    sl_set(&mut s.regs, o.a, o.imm);
    Step::Next
}

fn h_set_delta(s: &mut Simulator<'_>, o: &TOp) -> HR {
    s.delta = o.imm;
    Step::Next
}

fn h_spec_check(s: &mut Simulator<'_>, o: &TOp) -> HR {
    if s.regs[(o.a & 15) as usize] != 0 {
        return Step::Misspec;
    }
    Step::Next
}

// --- memory access ----------------------------------------------------------

/// Const-width memory access over [`Memory`]'s prevalidated-address
/// accessors. `turbo_data` has already bounced sub-`GLOBAL_BASE` and
/// past-the-end addresses, so the only reachable `None` is a line-tail
/// straddle, which faults exactly like `Memory::load`/`store` would.
#[inline(always)]
fn mem_load<const W: usize>(s: &Simulator<'_>, addr: u32) -> Option<u32> {
    match W {
        0 => s.mem.load1(addr).map(u32::from),
        1 => s.mem.load2(addr).map(u32::from),
        _ => s.mem.load4(addr),
    }
}

/// See [`mem_load`].
#[inline(always)]
fn mem_store<const W: usize>(s: &mut Simulator<'_>, addr: u32, v: u32) -> Option<()> {
    match W {
        0 => s.mem.store1(addr, v as u8),
        1 => s.mem.store2(addr, v as u16),
        _ => s.mem.store4(addr, v),
    }
}

// --- handler selection ------------------------------------------------------

fn alu_handler(code: usize, imm: bool) -> Handler {
    macro_rules! pick {
        ($($n:literal),*) => {
            match (code, imm) {
                $( ($n, false) => h_alu_rr::<$n>, ($n, true) => h_alu_ri::<$n>, )*
                _ => unreachable!("alu op code"),
            }
        };
    }
    pick!(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
}

fn salu_handler(code: usize, imm: bool) -> Handler {
    macro_rules! pick {
        ($($n:literal),*) => {
            match (code, imm) {
                $( ($n, false) => h_salu_ss::<$n>, ($n, true) => h_salu_si::<$n>, )*
                _ => unreachable!("salu op code"),
            }
        };
    }
    pick!(0, 1, 2, 3, 4, 5, 6, 7)
}

fn salu_spec_handler(code: usize, imm: bool) -> Handler {
    match (code, imm) {
        (0, false) => h_salu_spec_ss::<0>,
        (0, true) => h_salu_spec_si::<0>,
        (1, false) => h_salu_spec_ss::<1>,
        (1, true) => h_salu_spec_si::<1>,
        (5, false) => h_salu_spec_ss::<5>,
        (5, true) => h_salu_spec_si::<5>,
        _ => unreachable!("only Add/Sub/Lsl speculate"),
    }
}

fn width_handler(w: MemWidth, hb: Handler, hh: Handler, hw: Handler) -> Handler {
    match w {
        MemWidth::B => hb,
        MemWidth::H => hh,
        MemWidth::W => hw,
    }
}

/// Predecode one instruction into its handler + packed operands.
/// Branch terminators and `Halt` get a placeholder — the run loop executes
/// them inline and never dispatches their handler slot.
#[allow(clippy::too_many_lines)]
fn decode(pc: usize, inst: &MInst) -> (Handler, TOp) {
    match inst {
        MInst::Alu { op, rd, rn, src2 } => {
            let code = alu_code(*op);
            match src2 {
                Operand::Reg(rm) => (
                    alu_handler(code, false),
                    TOp {
                        a: rd.0,
                        b: rn.0,
                        c: rm.0,
                        ..ZOP
                    },
                ),
                Operand::Imm(i) => (
                    alu_handler(code, true),
                    TOp {
                        a: rd.0,
                        b: rn.0,
                        imm: *i,
                        ..ZOP
                    },
                ),
            }
        }
        MInst::MovImm { rd, imm } => (
            h_mov_imm,
            TOp {
                a: rd.0,
                imm: *imm,
                ..ZOP
            },
        ),
        MInst::Mov { rd, rm } => (
            h_mov,
            TOp {
                a: rd.0,
                b: rm.0,
                ..ZOP
            },
        ),
        MInst::MovCc { rd, rm, cond } => (
            h_mov_cc,
            TOp {
                a: rd.0,
                b: rm.0,
                c: cond_code(*cond),
                ..ZOP
            },
        ),
        MInst::Cmp { rn, src2 } => match src2 {
            Operand::Reg(rm) => (
                h_cmp_rr,
                TOp {
                    a: rn.0,
                    b: rm.0,
                    ..ZOP
                },
            ),
            Operand::Imm(i) => (
                h_cmp_ri,
                TOp {
                    a: rn.0,
                    imm: *i,
                    ..ZOP
                },
            ),
        },
        MInst::CSet { rd, cond } => (
            h_cset,
            TOp {
                a: rd.0,
                b: cond_code(*cond),
                ..ZOP
            },
        ),
        MInst::Umull { rdlo, rdhi, rn, rm } => (
            h_umull,
            TOp {
                a: rdlo.0,
                b: rdhi.0,
                c: rn.0,
                d: rm.0,
                ..ZOP
            },
        ),
        MInst::Extend {
            rd,
            rm,
            from,
            signed,
        } => {
            let h: Handler = match (from, signed) {
                (MemWidth::B, false) => h_extend::<0>,
                (MemWidth::B, true) => h_extend::<1>,
                (MemWidth::H, false) => h_extend::<2>,
                (MemWidth::H, true) => h_extend::<3>,
                (MemWidth::W, _) => h_extend::<4>,
            };
            (
                h,
                TOp {
                    a: rd.0,
                    b: rm.0,
                    ..ZOP
                },
            )
        }
        MInst::Load {
            rd,
            rn,
            offset,
            width,
            ..
        } => (
            width_handler(*width, h_load::<0>, h_load::<1>, h_load::<2>),
            TOp {
                a: rd.0,
                b: rn.0,
                imm: *offset as u32,
                ..ZOP
            },
        ),
        MInst::Store {
            rs,
            rn,
            offset,
            width,
            ..
        } => (
            width_handler(*width, h_store::<0>, h_store::<1>, h_store::<2>),
            TOp {
                a: rs.0,
                b: rn.0,
                imm: *offset as u32,
                ..ZOP
            },
        ),
        MInst::LoadIdx {
            rd,
            rn,
            bidx,
            shift,
            width,
        } => (
            width_handler(*width, h_load_idx::<0>, h_load_idx::<1>, h_load_idx::<2>),
            TOp {
                a: rd.0,
                b: rn.0,
                c: sl_pack(*bidx),
                d: *shift,
                ..ZOP
            },
        ),
        MInst::SLoadIdx {
            bd,
            rn,
            bidx,
            shift,
            speculative,
        } => (
            if *speculative {
                h_sload_idx_spec
            } else {
                h_sload_idx
            },
            TOp {
                a: sl_pack(*bd),
                b: rn.0,
                c: sl_pack(*bidx),
                d: *shift,
                ..ZOP
            },
        ),
        MInst::Push { regs } => match pack_regs(regs.iter().rev().map(|r| r.index())) {
            Some((imm, count)) => (
                h_push,
                TOp {
                    a: count,
                    imm,
                    ..ZOP
                },
            ),
            None => (
                h_push_slow,
                TOp {
                    imm: pc as u32,
                    ..ZOP
                },
            ),
        },
        MInst::Pop { regs } => match pack_regs(regs.iter().map(|r| r.index())) {
            Some((imm, count)) => (
                h_pop,
                TOp {
                    a: count,
                    imm,
                    ..ZOP
                },
            ),
            None => (
                h_pop_slow,
                TOp {
                    imm: pc as u32,
                    ..ZOP
                },
            ),
        },
        MInst::Out { rn } => (h_out, TOp { a: rn.0, ..ZOP }),
        MInst::B { .. }
        | MInst::Bc { .. }
        | MInst::Bl { .. }
        | MInst::Ret
        | MInst::Halt
        | MInst::Nop => (h_nop, ZOP),
        MInst::SAlu {
            op,
            bd,
            bn,
            src2,
            speculative,
        } => {
            let code = salu_code(*op);
            let spec = *speculative && matches!(op, SAluOp::Add | SAluOp::Sub | SAluOp::Lsl);
            match src2 {
                SliceOperand::Slice(s2) => (
                    if spec {
                        salu_spec_handler(code, false)
                    } else {
                        salu_handler(code, false)
                    },
                    TOp {
                        a: sl_pack(*bd),
                        b: sl_pack(*bn),
                        c: sl_pack(*s2),
                        ..ZOP
                    },
                ),
                SliceOperand::Imm(i) => (
                    if spec {
                        salu_spec_handler(code, true)
                    } else {
                        salu_handler(code, true)
                    },
                    TOp {
                        a: sl_pack(*bd),
                        b: sl_pack(*bn),
                        imm: u32::from(*i),
                        ..ZOP
                    },
                ),
            }
        }
        MInst::SCmp { bn, src2 } => match src2 {
            SliceOperand::Slice(s2) => (
                h_scmp_s,
                TOp {
                    a: sl_pack(*bn),
                    b: sl_pack(*s2),
                    ..ZOP
                },
            ),
            SliceOperand::Imm(i) => (
                h_scmp_i,
                TOp {
                    a: sl_pack(*bn),
                    imm: u32::from(*i),
                    ..ZOP
                },
            ),
        },
        MInst::SLoadSpec { bd, rn, offset } => (
            h_sload_spec,
            TOp {
                a: sl_pack(*bd),
                b: rn.0,
                imm: *offset as u32,
                ..ZOP
            },
        ),
        MInst::SLoad { bd, rn, offset, .. } => (
            h_sload,
            TOp {
                a: sl_pack(*bd),
                b: rn.0,
                imm: *offset as u32,
                ..ZOP
            },
        ),
        MInst::SStore { bs, rn, offset, .. } => (
            h_sstore,
            TOp {
                a: sl_pack(*bs),
                b: rn.0,
                imm: *offset as u32,
                ..ZOP
            },
        ),
        MInst::SExtend { rd, bn, signed } => (
            if *signed {
                h_sextend::<true>
            } else {
                h_sextend::<false>
            },
            TOp {
                a: rd.0,
                b: sl_pack(*bn),
                ..ZOP
            },
        ),
        MInst::STrunc {
            bd,
            rn,
            speculative,
        } => (
            if *speculative {
                h_strunc_spec
            } else {
                h_strunc
            },
            TOp {
                a: sl_pack(*bd),
                b: rn.0,
                ..ZOP
            },
        ),
        MInst::SMov { bd, bs } => (
            h_smov,
            TOp {
                a: sl_pack(*bd),
                b: sl_pack(*bs),
                ..ZOP
            },
        ),
        MInst::SMovImm { bd, imm } => (
            h_smov_imm,
            TOp {
                a: sl_pack(*bd),
                imm: u32::from(*imm),
                ..ZOP
            },
        ),
        MInst::SetDelta { bytes } => (h_set_delta, TOp { imm: *bytes, ..ZOP }),
        MInst::SpecCheck { rn } => (h_spec_check, TOp { a: rn.0, ..ZOP }),
    }
}

// --- run loop ---------------------------------------------------------------

impl<'p> Simulator<'p> {
    /// Data access with the stall charged directly to `cycles`; the
    /// `l1d_accesses` counter is static (lives in [`SActs`]). Routes
    /// through the per-set MRU line map ([`Simulator::dmap`]), which tracks
    /// one resident line per L1D set. Every data access of a turbo run,
    /// block or fallback, comes through here.
    #[inline]
    fn turbo_data(&mut self, addr: u32, write: bool) -> bool {
        if addr < 0x100 || addr >= self.p.mem_size {
            self.terr = Some(SimError::MemFault { pc: 0, addr });
            return false;
        }
        let line = addr >> self.dline_shift;
        let i = (line as usize) & (self.dmap.len() - 1);
        let (bl, bs) = self.dmap[i];
        if bl == line {
            self.hier.l1d.touch_hit(bs as usize, write);
            return true;
        }
        let (stall, slot) = self.hier.data_at(addr, write);
        self.act.cycles += stall;
        self.dmap[i] = (line, slot as u32);
        true
    }

    /// Surface a parked fault. Handlers don't carry their pc — they park
    /// a placeholder, and the dispatch loop supplies the faulting
    /// instruction's `pc`.
    #[cold]
    fn take_fault(&mut self, pc: usize) -> SimError {
        match self.terr.take().expect("fault recorded") {
            SimError::MemFault { addr, .. } => SimError::MemFault { pc, addr },
            e => e,
        }
    }

    /// Park a memory fault for the dispatch loop to surface.
    #[cold]
    fn tfault(&mut self, addr: u32) -> Step {
        self.terr = Some(SimError::MemFault { pc: 0, addr });
        Step::Fault
    }

    /// Flush batched same-line I-fetch touches. Must run before anything
    /// else mutates or reads the L1I (a real fetch) so tick/LRU ordering
    /// matches unbatched simulation exactly.
    #[inline]
    fn flush_touches(&mut self, pending: &mut u64) {
        if *pending > 0 {
            self.hier.l1i.touch_hits(self.ibuf_slot, *pending);
            *pending = 0;
        }
    }

    /// A real (line-crossing) I-fetch; caller must have flushed pending
    /// touches. The stall goes directly to `cycles` and is returned for
    /// DTS class accounting.
    fn fetch_turbo_real(&mut self, addr: u32, line_shift: u32) -> u64 {
        let l2_before = self.hier.l2.accesses();
        let dram_before = self.hier.dram_accesses;
        let (stall, slot) = self.hier.fetch_at(addr);
        self.act.cycles += stall;
        self.act.l2_from_i += self.hier.l2.accesses() - l2_before;
        self.act.dram_from_i += self.hier.dram_accesses - dram_before;
        self.ibuf_line = addr >> line_shift;
        self.ibuf_slot = slot;
        stall
    }

    /// One dynamically classified fetch slot: a touch of the buffered line
    /// (batched into `pending`) or a real fetch. Returns the stall, which
    /// is already in `cycles`.
    #[inline]
    fn fetch_slot(&mut self, addr: u32, line_shift: u32, pending: &mut u64) -> u64 {
        if addr >> line_shift == self.ibuf_line {
            *pending += 1;
            return 0;
        }
        self.flush_touches(pending);
        self.fetch_turbo_real(addr, line_shift)
    }

    /// Per-instruction execution from `self.pc` until control reaches a
    /// block leader (returns `false`) or `Halt` (returns `true`). Each step
    /// dispatches the pc's handler, applies its [`SActs`] with the
    /// load-use interlock taken dynamically, and runs branches inline. Used
    /// for mid-block entry after misspeculation redirects, `Ret` to a
    /// non-leader, out-of-range successors and fuel-tight blocks.
    fn run_fallback<const DTS: bool>(
        &mut self,
        img: &TurboImage,
        pending: &mut u64,
        cls: &[u8],
        accs: &mut [ClassAcc],
    ) -> Result<bool, SimError> {
        let p = self.p;
        let fuel = self.cfg.fuel;
        let shift = img.line_shift;
        loop {
            let pc = self.pc;
            // An out-of-range pc panics here, as in the reference engine.
            let inst = &p.insts[pc];
            if matches!(inst, MInst::Halt) {
                return Ok(true);
            }
            if self.counts.dyn_insts >= fuel {
                return Err(SimError::OutOfFuel);
            }
            self.counts.dyn_insts += 1;
            let pre = p.pre[pc];
            let addr = p.addrs[pc];
            // Fetch stalls are charged to `cycles` as they happen; `cyc`
            // collects the rest of this step's dynamic cycles.
            let mut stall = self.fetch_slot(addr, shift, pending);
            if pre.two_slot {
                stall += self.fetch_slot(addr + 4, shift, pending);
            }
            let mut cyc = 0;
            if self.last_load_mask & pre.read_mask != 0 {
                cyc += 1;
            }
            let sa = &img.sacts[pc];
            sa.apply(1, &mut self.act, &mut self.counts);
            let mut next = pc + 1;
            let mut wrote = true;
            match *inst {
                MInst::B { target } => next = target,
                MInst::Bc { cond, target } => {
                    if eval_cond(cond, self.flags) {
                        self.counts.taken_branches += 1;
                        cyc += 2;
                        next = target;
                    }
                }
                MInst::Bl { target } => {
                    self.regs[LR.index()] = next as u32;
                    next = target;
                }
                MInst::Ret => next = self.regs[LR.index()] as usize,
                _ => {
                    let (h, ref op) = img.code[pc];
                    match h(self, op) {
                        Step::Next => {}
                        Step::Misspec => {
                            wrote = false;
                            cyc += 3;
                            next = self.misspec_target(pc)?;
                        }
                        Step::Fault => return Err(self.take_fault(pc)),
                    }
                }
            }
            self.act.cycles += cyc;
            if DTS {
                let a = &mut accs[usize::from(cls[pc])];
                a.add(&ClassAcc::of(sa, wrote), 1);
                a.cyc += stall + cyc;
            }
            self.last_load_mask = pre.load_dest_mask;
            self.pc = next;
            // Leader check only after executing ≥1 instruction, and only
            // for in-bounds pcs — an out-of-bounds pc must fail at the
            // `p.insts[pc]` access above, exactly like the reference engine.
            if next < p.insts.len() && img.is_leader(next) {
                return Ok(false);
            }
        }
    }

    /// Dispatches `code[k..lim]`, one handler per instruction. Returns the
    /// offset of the instruction that stopped the run plus its [`Step`]
    /// (`(lim, Next)` when the span completes).
    #[inline(always)]
    fn run_span(&mut self, code: &[(Handler, TOp)], mut k: usize, lim: usize) -> (usize, Step) {
        for (h, op) in &code[k..lim] {
            match h(self, op) {
                Step::Next => k += 1,
                s => return (k, s),
            }
        }
        (lim, Step::Next)
    }

    /// Entry point from [`Simulator::run`]: predecode, then execute.
    pub(crate) fn run_turbo(self) -> Result<SimResult, SimError> {
        let img = TurboImage::build(self.p, self.cfg.dts);
        if self.cfg.dts {
            self.run_image::<true>(&img)
        } else {
            self.run_image::<false>(&img)
        }
    }

    /// The block-dispatch loop, monomorphized on DTS so plain runs pay
    /// nothing for per-class accounting.
    #[allow(clippy::too_many_lines)]
    fn run_image<const DTS: bool>(mut self, img: &TurboImage) -> Result<SimResult, SimError> {
        let p = self.p;
        let em = self.cfg.energy;
        let fuel = self.cfg.fuel;
        let shift = img.line_shift;
        let len = p.insts.len();
        // Arm the per-set D-line map (reference runs never pay the
        // allocation). Entries start invalid; `turbo_data` fills them.
        self.dmap = vec![(u32::MAX, 0); self.hier.l1d.sets()];
        let cls: &[u8] = img.dts.as_ref().map_or(&[], |d| &d.class);
        let mut accs = vec![ClassAcc::default(); img.dts.as_ref().map_or(0, |d| d.scales.len())];
        let mut bexec = vec![0u64; img.blocks.len()];
        let mut pending: u64 = 0;
        'outer: loop {
            // Resync from an architectural pc: run entry, misspeculation
            // redirects, and fallback returns land here. Anything that is
            // not an in-range block leader (mid-block skeleton targets,
            // out-of-range pcs) runs per-instruction until control reaches
            // a leader — or faults, exactly like the reference engine.
            let pc = self.pc;
            if pc >= len || !img.is_leader(pc) {
                if self.run_fallback::<DTS>(img, &mut pending, cls, &mut accs)? {
                    break 'outer;
                }
                continue 'outer;
            }
            let mut bi = img.block_of[pc] as usize;
            // Block-to-block dispatch: terminator successors are precomputed
            // block indices, so this loop needs no bounds or leader checks —
            // it leaves only for `Halt`, fuel-tight blocks, misspeculation,
            // and dynamic `Ret` targets.
            loop {
                let blk = &img.blocks[bi];
                // One guard for every cold block-entry exit: `Halt` and
                // `Oob` blocks are built with `n == 0`, and a block that
                // might overrun the fuel budget runs per-instruction. The
                // hot path pays a single almost-never-taken branch.
                if blk.n == 0 || self.counts.dyn_insts + u64::from(blk.n) > fuel {
                    match blk.term {
                        Term::Halt => break 'outer,
                        _ => {
                            // `Oob`: fail via the fallback's `insts[pc]`
                            // access, like the reference engine. Fuel-tight:
                            // run per-instruction so OutOfFuel surfaces
                            // after the exact same instruction.
                            self.pc = blk.start;
                            if self.run_fallback::<DTS>(img, &mut pending, cls, &mut accs)? {
                                break 'outer;
                            }
                            continue 'outer;
                        }
                    }
                }
                let start = blk.start;
                // Block-entry interlock: a word load at the end of the
                // previous block feeding our first instruction's read set.
                if self.last_load_mask & blk.entry_read_mask != 0 {
                    self.act.cycles += 1;
                    if DTS {
                        accs[usize::from(cls[start])].cyc += 1;
                    }
                }
                let nh = blk.n_handlers as usize;
                // Entry fetch: the only dynamically classified sub-slot —
                // does the block's first slot sit on the buffered line?
                let stall = self.fetch_slot(blk.a0, shift, &mut pending);
                if DTS {
                    accs[usize::from(cls[start])].cyc += stall;
                }
                // Dispatch handlers in straight runs between the block's
                // static real-fetch events; each real fetch fires at its
                // exact program position (shared-L2 ordering vs data
                // misses), while same-line touches batch into `pending` —
                // they only mutate the L1I, so their position relative to
                // data accesses commutes.
                let code = &img.code[start..start + nh];
                let mut k = 0usize;
                let mut cum_consumed = 0u32;
                let mut redirected = false;
                'block: {
                    // Blocks that cross an I-line carry real-fetch events.
                    if blk.rev_len > 0 {
                        let revs = &img.revs
                            [blk.rev_start as usize..(blk.rev_start + blk.rev_len) as usize];
                        for ev in revs {
                            // Events on an inline terminator's sub-slots
                            // fire after every handler.
                            let lim = (ev.k as usize).min(nh);
                            let (k2, sig) = self.run_span(code, k, lim);
                            k = k2;
                            match sig {
                                Step::Next => {}
                                Step::Misspec => {
                                    redirected = true;
                                    break 'block;
                                }
                                Step::Fault => return Err(self.take_fault(start + k)),
                            }
                            pending += u64::from(ev.pend_before);
                            self.flush_touches(&mut pending);
                            let stall = self.fetch_turbo_real(ev.addr, shift);
                            if DTS {
                                accs[usize::from(cls[start + ev.k as usize])].cyc += stall;
                            }
                            cum_consumed = ev.cum_before;
                        }
                    }
                    let (k2, sig) = self.run_span(code, k, nh);
                    k = k2;
                    match sig {
                        Step::Next => {}
                        Step::Misspec => {
                            redirected = true;
                            break 'block;
                        }
                        Step::Fault => return Err(self.take_fault(start + k)),
                    }
                }
                if redirected {
                    // Flush the executed prefix's static counters and the
                    // touches of the prefix's not-yet-batched sub-slots,
                    // then redirect through the resync path (the target is
                    // usually mid-block skeleton code).
                    let ip = start + k;
                    pending += u64::from(img.cumtouch[ip] - cum_consumed);
                    for pc in start..=ip {
                        let sa = &img.sacts[pc];
                        sa.apply(1, &mut self.act, &mut self.counts);
                        let ilock = u64::from(pc > start && interlocked(p, pc));
                        self.act.cycles += ilock;
                        if DTS {
                            // Every op before `ip` wrote its destination;
                            // `ip` misspeculated.
                            let a = &mut accs[usize::from(cls[pc])];
                            a.add(&ClassAcc::of(sa, pc < ip), 1);
                            a.cyc += ilock;
                        }
                    }
                    self.counts.dyn_insts += k as u64 + 1;
                    self.last_load_mask = p.pre[ip].load_dest_mask;
                    self.act.cycles += 3;
                    if DTS {
                        accs[usize::from(cls[ip])].cyc += 3;
                    }
                    self.pc = self.misspec_target(ip)?;
                    continue 'outer;
                }
                // Full block executed: one bookkeeping step for the span.
                pending += u64::from(blk.tail_pend);
                bexec[bi] += 1;
                self.counts.dyn_insts += u64::from(blk.n);
                self.last_load_mask = blk.exit_load_mask;
                match blk.term {
                    Term::Fall { next } => bi = next as usize,
                    Term::B { target } => bi = target as usize,
                    Term::Bc { cond, target, next } => {
                        // Branchless select: partition-style loops resolve
                        // ~50/50, so a data-dependent host branch here costs
                        // a mispredict per block. cmov + arithmetic don't.
                        let t = eval_cond(cond, self.flags);
                        self.counts.taken_branches += u64::from(t);
                        self.act.cycles += 2 * u64::from(t);
                        if DTS {
                            accs[usize::from(cls[start + blk.n as usize - 1])].cyc +=
                                2 * u64::from(t);
                        }
                        bi = if t { target } else { next } as usize;
                    }
                    Term::Bl { target, ret_pc } => {
                        self.regs[LR.index()] = ret_pc;
                        bi = target as usize;
                    }
                    Term::Ret => {
                        // The one dynamic successor: a leader continues in
                        // block mode, anything else resyncs (corrupted or
                        // in-skeleton return addresses run per-instruction
                        // until they re-sync or fault).
                        let lr = self.regs[LR.index()] as usize;
                        if lr < len {
                            let b = img.block_of[lr] as usize;
                            if img.blocks[b].start == lr {
                                bi = b;
                                continue;
                            }
                        }
                        self.pc = lr;
                        continue 'outer;
                    }
                    Term::Oob | Term::Halt => unreachable!("handled at block entry"),
                }
            }
        }
        self.flush_touches(&mut pending);
        for (tot, &k) in img.tots.iter().zip(&bexec) {
            if k > 0 {
                tot.apply(k, &mut self.act, &mut self.counts);
            }
        }
        self.act.l2_accesses = self.hier.l2.accesses();
        self.act.dram_accesses = self.hier.dram_accesses;
        let mut energy = em.fold(&self.act);
        if let Some(d) = img.dts.as_ref().filter(|_| DTS) {
            for (b, &k) in bexec.iter().enumerate() {
                if k > 0 {
                    for (c, acc) in &d.split[d.split_at[b] as usize..d.split_at[b + 1] as usize] {
                        accs[usize::from(*c)].add(acc, k);
                    }
                }
            }
            d.charge_remainders(&mut accs, &self.act);
            fold_dts(&mut energy, &accs, &d.scales, &em);
        }
        Ok(SimResult {
            outputs: self.outputs,
            cycles: self.act.cycles,
            counts: self.counts,
            activity: self.act,
            energy,
        })
    }
}
