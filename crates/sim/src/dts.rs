//! Dynamic timing slack (RQ8): the time-squeezing co-design model.
//!
//! The compiler side of Fan et al.'s *time squeezing* estimates the
//! critical-path utilization of each instruction and emits clock-period
//! hints; the hardware scales the clock per instruction and lowers the
//! supply voltage to fill the nominal period, reclaiming the slack as
//! energy (with RazorII-style detection/recovery as the safety net).
//!
//! We model the estimator as a per-instruction-class path-utilization
//! factor `f ∈ (0, 1]` and convert it to a core-energy scale with the
//! alpha-power-law delay model: find `V` such that delay grows by `1/f`,
//! then scale dynamic energy by `(V/Vnom)²`. 8-bit slice operations have
//! much shorter carry chains than 32-bit ones, which is exactly why
//! DTS+BITSPEC composes (Figure 17).

use isa::MInst;
use std::sync::OnceLock;

/// Alpha-power-law parameters (45 nm-ish).
const V_NOM: f64 = 1.2;
const V_T: f64 = 0.35;
const ALPHA: f64 = 1.6;
/// RazorII error-recovery cycle overhead.
pub const RAZOR_CYCLE_OVERHEAD: f64 = 0.02;

/// The DTS model: converts instruction classes to core-energy scales.
#[derive(Debug, Clone)]
pub struct DtsModel {
    /// Cached energy scale per permille of path utilization. The table
    /// is pure math (alpha-power-law inversion), so it is computed once
    /// per process and shared — a simulator is constructed per run, and
    /// 1001 binary searches over `powf` per construction dominated short
    /// simulations.
    scale_table: &'static [f64],
}

fn shared_scale_table() -> &'static [f64] {
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Vec::with_capacity(1001);
        for i in 0..=1000 {
            let f = (i as f64 / 1000.0).max(0.05);
            t.push(energy_scale_for(f));
        }
        t
    })
}

impl Default for DtsModel {
    fn default() -> Self {
        DtsModel {
            scale_table: shared_scale_table(),
        }
    }
}

fn delay_ratio(v: f64) -> f64 {
    // delay ∝ V / (V - Vt)^α, normalized to V_NOM.
    let d = |v: f64| v / (v - V_T).powf(ALPHA);
    d(v) / d(V_NOM)
}

fn energy_scale_for(f: f64) -> f64 {
    if f >= 1.0 {
        return 1.0;
    }
    // Find V where delay stretches by 1/f (binary search, V ∈ (Vt, Vnom]).
    let target = 1.0 / f;
    let (mut lo, mut hi) = (V_T + 0.05, V_NOM);
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        if delay_ratio(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let v = (lo + hi) / 2.0;
    (v / V_NOM).powi(2)
}

impl DtsModel {
    /// Core-energy scale for one instruction (1.0 = no savings).
    pub fn scale(&self, inst: &MInst) -> f64 {
        let f = path_utilization(inst);
        self.scale_table[(f * 1000.0) as usize]
    }

    /// Predecodes a program image into (per-instruction class index,
    /// per-class energy scale). Instructions sharing a path-utilization
    /// value share a class, so the turbo engine splits each block's
    /// static activity per class with one table lookup per instruction
    /// instead of re-classifying it.
    pub fn precompute(&self, insts: &[MInst]) -> (Vec<u8>, Vec<f64>) {
        let mut permilles: Vec<u16> = Vec::new();
        let mut classes = Vec::with_capacity(insts.len());
        for inst in insts {
            let pm = (path_utilization(inst) * 1000.0) as u16;
            let class = match permilles.iter().position(|&p| p == pm) {
                Some(c) => c,
                None => {
                    permilles.push(pm);
                    permilles.len() - 1
                }
            };
            assert!(class < 256, "more distinct DTS classes than expected");
            classes.push(class as u8);
        }
        let scales = permilles
            .iter()
            .map(|&pm| self.scale_table[pm as usize])
            .collect();
        (classes, scales)
    }
}

/// The compiler's critical-path estimate per instruction class: fraction
/// of the nominal clock period the instruction's logic actually uses.
pub fn path_utilization(inst: &MInst) -> f64 {
    use isa::AluOp::*;
    match inst {
        // Loads/stores and multiplies/divides use the full period.
        MInst::Load { .. }
        | MInst::Store { .. }
        | MInst::Push { .. }
        | MInst::Pop { .. }
        | MInst::SLoad { .. }
        | MInst::SStore { .. }
        | MInst::SLoadSpec { .. }
        | MInst::LoadIdx { .. }
        | MInst::SLoadIdx { .. }
        | MInst::Umull { .. } => 1.0,
        MInst::Alu { op, .. } => match op {
            Mul | Udiv | Sdiv => 1.0,
            Add | Adds | Adc | Sub | Subs | Sbc | Sbcs => 0.82, // 32-bit carry chain
            Lsl | Lsr | Asr => 0.68,
            And | Orr | Eor => 0.60,
        },
        MInst::Cmp { .. } => 0.78,
        MInst::CSet { .. } | MInst::MovCc { .. } => 0.62,
        MInst::Mov { .. } | MInst::MovImm { .. } | MInst::Extend { .. } => 0.55,
        MInst::B { .. } | MInst::Bc { .. } | MInst::Bl { .. } | MInst::Ret => 0.72,
        // Slice ops: an 8-bit carry chain is far shorter.
        MInst::SAlu { .. } => 0.52,
        MInst::SCmp { .. } => 0.50,
        MInst::SExtend { .. }
        | MInst::STrunc { .. }
        | MInst::SMov { .. }
        | MInst::SMovImm { .. } => 0.45,
        MInst::SetDelta { .. } | MInst::SpecCheck { .. } => 0.50,
        MInst::Out { .. } | MInst::Halt | MInst::Nop => 0.55,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{Reg, Slice, SliceOperand};

    #[test]
    fn full_utilization_has_no_savings() {
        let m = DtsModel::default();
        let load = MInst::Load {
            rd: Reg(0),
            rn: Reg(1),
            offset: 0,
            width: isa::MemWidth::W,
            spill: false,
        };
        assert!((m.scale(&load) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn slice_ops_save_more_than_word_ops() {
        let m = DtsModel::default();
        let word_add = MInst::Alu {
            op: isa::AluOp::Add,
            rd: Reg(0),
            rn: Reg(1),
            src2: isa::Operand::Imm(1),
        };
        let slice_add = MInst::SAlu {
            op: isa::inst::SAluOp::Add,
            bd: Slice::new(Reg(0), 0),
            bn: Slice::new(Reg(0), 0),
            src2: SliceOperand::Imm(1),
            speculative: true,
        };
        let sw = m.scale(&word_add);
        let ss = m.scale(&slice_add);
        assert!(ss < sw, "slice ops must reclaim more slack ({ss} vs {sw})");
        assert!(sw < 1.0);
    }

    #[test]
    fn energy_scale_is_monotone_in_utilization() {
        let mut prev = 0.0;
        for i in 1..=10 {
            let s = energy_scale_for(i as f64 / 10.0);
            assert!(s >= prev, "scale must grow with utilization");
            prev = s;
        }
        assert!((energy_scale_for(1.0) - 1.0).abs() < 1e-12);
    }

    /// Turbo's DTS accounting charges every data-side stall to the
    /// full-utilization class without looking at the instruction, which
    /// holds only while every data-accessing instruction runs at full
    /// utilization. The match is exhaustive so a new `MInst` variant has
    /// to take a side here.
    #[test]
    fn data_accessing_instructions_have_full_utilization() {
        fn accesses_data(inst: &MInst) -> bool {
            match inst {
                MInst::Load { .. }
                | MInst::LoadIdx { .. }
                | MInst::Store { .. }
                | MInst::Push { .. }
                | MInst::Pop { .. }
                | MInst::SLoadSpec { .. }
                | MInst::SLoadIdx { .. }
                | MInst::SLoad { .. }
                | MInst::SStore { .. } => true,
                MInst::Alu { .. }
                | MInst::MovImm { .. }
                | MInst::Mov { .. }
                | MInst::Cmp { .. }
                | MInst::CSet { .. }
                | MInst::MovCc { .. }
                | MInst::Umull { .. }
                | MInst::Extend { .. }
                | MInst::B { .. }
                | MInst::Bc { .. }
                | MInst::Bl { .. }
                | MInst::Ret
                | MInst::Out { .. }
                | MInst::Halt
                | MInst::Nop
                | MInst::SAlu { .. }
                | MInst::SCmp { .. }
                | MInst::SExtend { .. }
                | MInst::STrunc { .. }
                | MInst::SMov { .. }
                | MInst::SMovImm { .. }
                | MInst::SetDelta { .. }
                | MInst::SpecCheck { .. } => false,
            }
        }
        let (r, b) = (Reg(1), Slice::new(Reg(2), 1));
        let data = [
            MInst::Load {
                rd: r,
                rn: r,
                offset: 4,
                width: isa::MemWidth::B,
                spill: true,
            },
            MInst::LoadIdx {
                rd: r,
                rn: r,
                bidx: b,
                shift: 2,
                width: isa::MemWidth::H,
            },
            MInst::Store {
                rs: r,
                rn: r,
                offset: -4,
                width: isa::MemWidth::W,
                spill: false,
            },
            MInst::Push { regs: vec![r] },
            MInst::Pop { regs: vec![r] },
            MInst::SLoadSpec {
                bd: b,
                rn: r,
                offset: 0,
            },
            MInst::SLoadIdx {
                bd: b,
                rn: r,
                bidx: b,
                shift: 0,
                speculative: true,
            },
            MInst::SLoadIdx {
                bd: b,
                rn: r,
                bidx: b,
                shift: 1,
                speculative: false,
            },
            MInst::SLoad {
                bd: b,
                rn: r,
                offset: 0,
                spill: true,
            },
            MInst::SStore {
                bs: b,
                rn: r,
                offset: 0,
                spill: false,
            },
        ];
        for inst in &data {
            assert!(accesses_data(inst), "{inst:?}");
            assert_eq!(path_utilization(inst), 1.0, "{inst:?}");
        }
    }

    #[test]
    fn typical_mix_lands_near_paper_savings() {
        // A rough 32-bit instruction mix should reclaim ~25–45% of core
        // energy, consistent with the paper's DTS baseline (28.4% total).
        let s_alu = energy_scale_for(0.82);
        let s_logic = energy_scale_for(0.60);
        let s_mem = 1.0;
        let mix = 0.4 * s_alu + 0.3 * s_logic + 0.3 * s_mem;
        assert!(mix > 0.55 && mix < 0.85, "mix scale {mix} out of range");
    }
}
