//! Two-way engine equivalence (the tentpole regression).
//!
//! The simulator keeps two engines: the retained reference engine
//! (`machine.rs`, `Engine::Reference`) and the block-fused turbo engine
//! (`turbo.rs`, `Engine::Turbo`, the default). Their contract:
//!
//! * `outputs`, `cycles`, `counts` and `activity` are **bit-identical**,
//! * every energy component agrees within float-summation tolerance
//!   (turbo folds integer counters once at end of run; the reference
//!   accumulates f64 per step — same events, different summation order).
//!
//! This suite holds turbo to that contract on every MiBench workload under
//! the BASELINE and BITSPEC builds, a misspeculation-heavy Min-heuristic
//! build (mid-block redirect entries stress turbo's fallback path), the
//! DTS mode, and alternate inputs, and requires the identical `SimError`
//! when a hand-linked program faults or runs out of fuel. A kernel run
//! again after a run that wrote every page of memory must give the same
//! result, since machine memory is recycled between runs.

use backend::{PreInst, Program};
use bitspec::{build, simulate_with, BuildConfig, Engine, SimConfig, Workload};
use interp::Heuristic;
use isa::{AluOp, Cond, MInst, MemWidth, Operand, Reg, Slice, SP};
use mibench::{names, workload, Input};
use sim::{SimError, SimResult};

const REL_TOL: f64 = 1e-6;

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// (reference, turbo) results for one build.
fn run_both(w: &Workload, cfg: &BuildConfig, dts: bool) -> [SimResult; 2] {
    let c = build(w, cfg).unwrap_or_else(|e| panic!("{}: build: {e}", w.name));
    [Engine::Reference, Engine::Turbo].map(|engine| {
        let sim_cfg = SimConfig {
            dts,
            engine,
            ..SimConfig::default()
        };
        simulate_with(&c, w, &sim_cfg).unwrap_or_else(|e| panic!("{}: {engine:?}: {e}", w.name))
    })
}

fn assert_equivalent(name: &str, tag: &str, refr: &SimResult, turbo: &SimResult) {
    let r = turbo;
    assert_eq!(r.outputs, refr.outputs, "{name}/{tag}: outputs");
    assert_eq!(r.cycles, refr.cycles, "{name}/{tag}: cycles");
    assert_eq!(r.counts, refr.counts, "{name}/{tag}: counts");
    assert_eq!(r.activity, refr.activity, "{name}/{tag}: activity");
    for (comp, e, x) in [
        ("alu", r.energy.alu, refr.energy.alu),
        ("regfile", r.energy.regfile, refr.energy.regfile),
        ("icache", r.energy.icache, refr.energy.icache),
        ("dcache", r.energy.dcache, refr.energy.dcache),
        ("pipeline", r.energy.pipeline, refr.energy.pipeline),
    ] {
        assert!(
            rel_close(e, x),
            "{name}/{tag}: energy.{comp} diverges: turbo={e} ref={x}"
        );
    }
}

/// BITSPEC build with the empirical gate off: the gate runs two extra
/// full simulations per build, which doubles suite time without touching
/// what this test checks (engine equivalence on whatever code runs).
fn bitspec_ungated() -> BuildConfig {
    BuildConfig {
        empirical_gate: false,
        ..BuildConfig::bitspec()
    }
}

#[test]
fn engines_match_on_baseline_suite() {
    for name in names() {
        let w = workload(name, Input::Large);
        let [refr, turbo] = run_both(&w, &BuildConfig::baseline(), false);
        assert_equivalent(name, "baseline", &refr, &turbo);
    }
}

#[test]
fn engines_match_on_bitspec_suite() {
    for name in names() {
        let w = workload(name, Input::Large);
        let [refr, turbo] = run_both(&w, &bitspec_ungated(), false);
        assert_equivalent(name, "bitspec", &refr, &turbo);
    }
}

#[test]
fn engines_match_under_min_heuristic_misspeculation() {
    // The Min heuristic narrows aggressively, so evaluation inputs drive
    // far more misspeculation redirects — each one enters a block
    // mid-span through the Δ-skeleton, exercising turbo's per-instruction
    // fallback and prefix-counter flush.
    let cfg = BuildConfig {
        empirical_gate: false,
        ..BuildConfig::bitspec_with(Heuristic::Min)
    };
    for name in names() {
        let w = workload(name, Input::Large);
        let [refr, turbo] = run_both(&w, &cfg, false);
        assert_equivalent(name, "bitspec-min", &refr, &turbo);
    }
}

#[test]
fn engines_match_under_dts() {
    // DTS is applied per step in the reference engine and folded per
    // class in turbo (the block-level static split plus per-site dynamic
    // charges): the ALU/regfile split of the discount differs in
    // summation order, but totals and all integer state must still agree.
    for name in ["crc32", "sha", "dijkstra"] {
        let w = workload(name, Input::Large);
        let [refr, r] = run_both(&w, &bitspec_ungated(), true);
        assert_eq!(r.outputs, refr.outputs, "{name}/dts: outputs");
        assert_eq!(r.cycles, refr.cycles, "{name}/dts: cycles");
        assert_eq!(r.counts, refr.counts, "{name}/dts: counts");
        assert_eq!(r.activity, refr.activity, "{name}/dts: activity");
        assert!(
            rel_close(r.total_energy(), refr.total_energy()),
            "{name}/dts: total energy diverges: {} ref={}",
            r.total_energy(),
            refr.total_energy()
        );
        // Caches are a separate voltage domain — DTS must not touch
        // them, so those components stay point-comparable.
        assert!(rel_close(r.energy.icache, refr.energy.icache));
        assert!(rel_close(r.energy.dcache, refr.energy.dcache));
    }
}

#[test]
fn alternate_inputs_agree_too() {
    // A second input set exercises different control paths (misspeculation
    // rates change with data).
    for name in ["bitcount", "qsort", "stringsearch"] {
        let w = workload(name, Input::Alternate);
        let [refr, turbo] = run_both(&w, &bitspec_ungated(), false);
        assert_equivalent(name, "alternate", &refr, &turbo);
    }
}

// --- error paths -------------------------------------------------------------
//
// The suites above only compare successful runs. These cases make both
// engines fault or run out of fuel on hand-linked programs and require the
// identical `SimError`, with DTS off and on.

/// Links a flat instruction list into a runnable [`Program`] (one function
/// at index 0, the last instruction is the `Halt`).
fn link(insts: Vec<MInst>) -> Program {
    let mut addrs = Vec::with_capacity(insts.len());
    let mut at = 0u32;
    for i in &insts {
        addrs.push(at);
        at += i.size(false);
    }
    let pre = insts.iter().map(|i| PreInst::of(i, false)).collect();
    let addr_index = addrs.iter().enumerate().map(|(i, &a)| (a, i)).collect();
    Program {
        halt: insts.len() - 1,
        insts,
        addrs,
        entry: 0,
        func_entries: vec![0],
        func_names: vec!["main".into()],
        global_inits: Vec::new(),
        mem_size: backend::emit::MEM_SIZE,
        compact: false,
        addr_index,
        spec_targets: Vec::new(),
        pre,
    }
}

/// (reference, turbo) outcomes of `p` under `fuel`, as comparable values.
fn outcomes(
    p: &Program,
    inputs: &[(u32, Vec<u8>)],
    dts: bool,
    fuel: u64,
) -> [Result<(Vec<u32>, u64), SimError>; 2] {
    [Engine::Reference, Engine::Turbo].map(|engine| {
        let cfg = SimConfig {
            dts,
            fuel,
            engine,
            ..SimConfig::default()
        };
        sim::run_program(p, &cfg, inputs).map(|r| (r.outputs, r.cycles))
    })
}

fn alu(op: AluOp, rd: u8, rn: u8, src2: Operand) -> MInst {
    MInst::Alu {
        op,
        rd: Reg(rd),
        rn: Reg(rn),
        src2,
    }
}

fn load(rd: u8, rn: u8, width: MemWidth) -> MInst {
    MInst::Load {
        rd: Reg(rd),
        rn: Reg(rn),
        offset: 0,
        width,
        spill: false,
    }
}

fn store(rs: u8, rn: u8, width: MemWidth) -> MInst {
    MInst::Store {
        rs: Reg(rs),
        rn: Reg(rn),
        offset: 0,
        width,
        spill: false,
    }
}

/// A loop whose body is `pair` after a 12-instruction straight-line prefix
/// (long enough to cross an I-cache line inside the block). `r1` walks up
/// from `mem_size - back` in 16-byte steps, so the body's `r1`-based access
/// succeeds for a few iterations of the fused block and then faults; `r6`
/// points at valid memory and `r7` is zero. `pair[i]` sits at index
/// `3 + 12 + i`.
fn fault_loop(pair: [MInst; 2], back: u32) -> Program {
    let mem = backend::emit::MEM_SIZE;
    let mut insts = vec![
        MInst::MovImm {
            rd: Reg(1),
            imm: mem - back,
        },
        MInst::MovImm {
            rd: Reg(6),
            imm: 0x1000,
        },
        MInst::MovImm { rd: Reg(7), imm: 0 },
    ];
    let top = insts.len();
    for _ in 0..12 {
        insts.push(alu(AluOp::Add, 9, 9, Operand::Imm(1)));
    }
    insts.extend(pair);
    insts.push(MInst::Out { rn: Reg(9) });
    insts.push(alu(AluOp::Add, 1, 1, Operand::Imm(16)));
    insts.push(MInst::B { target: top });
    insts.push(MInst::Halt);
    link(insts)
}

#[test]
fn engines_fault_identically_mid_block() {
    use MemWidth::{B, H, W};
    let sl = |reg: u8| Slice {
        reg: Reg(reg),
        byte: 0,
    };
    // (name, body pair, which of the two must fault). The pairs are the
    // adjacent shapes a block dispatches back to back: load/load,
    // alu/store, store/load, mov/load, alu/load and friends, faulting in
    // either position.
    let cases: Vec<(&str, [MInst; 2], usize)> = vec![
        ("load+load, 2nd", [load(3, 6, W), load(4, 1, W)], 1),
        ("load+load, 1st", [load(4, 1, W), load(3, 6, W)], 0),
        ("load+load bytes, 2nd", [load(3, 6, B), load(4, 1, B)], 1),
        ("load+load half, 2nd", [load(3, 6, H), load(4, 1, H)], 1),
        (
            "alu+store, 2nd",
            [alu(AluOp::Add, 5, 1, Operand::Reg(Reg(7))), store(3, 5, W)],
            1,
        ),
        (
            "alu_imm+store, 2nd",
            [alu(AluOp::Add, 5, 1, Operand::Imm(0)), store(3, 5, H)],
            1,
        ),
        ("store+load, 2nd", [store(3, 6, W), load(4, 1, W)], 1),
        ("store+load, 1st", [store(3, 1, W), load(4, 6, W)], 0),
        (
            "mov_imm+load, 2nd",
            [MInst::MovImm { rd: Reg(8), imm: 7 }, load(4, 1, W)],
            1,
        ),
        (
            "alu+load, 2nd",
            [alu(AluOp::Add, 8, 3, Operand::Reg(Reg(3))), load(4, 1, W)],
            1,
        ),
        (
            "load+alu, 1st",
            [load(4, 1, W), alu(AluOp::Add, 8, 3, Operand::Reg(Reg(3)))],
            0,
        ),
        (
            "store+mov, 1st",
            [
                store(3, 1, B),
                MInst::Mov {
                    rd: Reg(8),
                    rm: Reg(3),
                },
            ],
            0,
        ),
        (
            "alu+sload, 2nd",
            [
                alu(AluOp::Add, 8, 3, Operand::Reg(Reg(3))),
                MInst::SLoad {
                    bd: sl(4),
                    rn: Reg(1),
                    offset: 0,
                    spill: false,
                },
            ],
            1,
        ),
        (
            "alu+sstore, 2nd",
            [
                alu(AluOp::Add, 8, 3, Operand::Reg(Reg(3))),
                MInst::SStore {
                    bs: sl(4),
                    rn: Reg(1),
                    offset: 0,
                    spill: false,
                },
            ],
            1,
        ),
    ];
    // `back = 64`: the walk reaches `mem_size` exactly (out of range);
    // `back = 66`: a word or halfword access straddles the end first.
    for (name, pair, fault_at) in cases {
        for back in [64, 66] {
            let p = fault_loop(pair.clone(), back);
            let want_pc = 3 + 12 + fault_at;
            for dts in [false, true] {
                let [refr, turbo] = outcomes(&p, &[], dts, SimConfig::default().fuel);
                match &refr {
                    Err(SimError::MemFault { pc, .. }) => {
                        assert_eq!(*pc, want_pc, "{name}/back={back}/dts={dts}: fault pc");
                    }
                    other => {
                        panic!("{name}/back={back}/dts={dts}: expected a fault, got {other:?}")
                    }
                }
                assert_eq!(turbo, refr, "{name}/back={back}/dts={dts}");
            }
        }
    }
}

#[test]
fn engines_fault_identically_on_push_and_pop() {
    let mem = backend::emit::MEM_SIZE;
    // Push below the global base, and a pop that walks off the end of
    // memory on its second word.
    for (name, sp, op) in [
        (
            "push",
            0x104,
            MInst::Push {
                regs: vec![Reg(3), Reg(4), Reg(5)],
            },
        ),
        (
            "pop",
            mem - 4,
            MInst::Pop {
                regs: vec![Reg(3), Reg(4)],
            },
        ),
    ] {
        let p = link(vec![
            MInst::MovImm { rd: Reg(3), imm: 1 },
            alu(AluOp::Add, 4, 3, Operand::Imm(2)),
            MInst::MovImm { rd: SP, imm: sp },
            op,
            MInst::Out { rn: Reg(3) },
            MInst::Halt,
        ]);
        for dts in [false, true] {
            let [refr, turbo] = outcomes(&p, &[], dts, SimConfig::default().fuel);
            assert!(
                matches!(refr, Err(SimError::MemFault { pc: 3, .. })),
                "{name}/dts={dts}: {refr:?}"
            );
            assert_eq!(turbo, refr, "{name}/dts={dts}");
        }
    }
}

/// Every fuel budget from 0 past the run's length: both engines stop
/// after the same instruction (`OutOfFuel`) or finish with the same
/// outputs and cycles.
fn sweep_fuel(name: &str, p: &Program, inputs: &[(u32, Vec<u8>)]) {
    let total = sim::run_program(p, &SimConfig::default(), inputs)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .counts
        .dyn_insts;
    for dts in [false, true] {
        for fuel in 0..=total + 1 {
            let [refr, turbo] = outcomes(p, inputs, dts, fuel);
            assert_eq!(turbo, refr, "{name}/dts={dts}/fuel={fuel}");
            // `Halt` is not counted, so it takes no fuel.
            assert_eq!(
                refr.is_ok(),
                fuel >= total,
                "{name}/dts={dts}/fuel={fuel}: total {total}"
            );
        }
    }
}

#[test]
fn out_of_fuel_fires_on_the_same_instruction() {
    // A counted loop with a call and a return, blocks of several sizes
    // and a fused-pair-shaped body (load+load, alu+store).
    use MemWidth::W;
    let p = link(vec![
        MInst::MovImm { rd: Reg(2), imm: 9 },
        MInst::MovImm {
            rd: Reg(6),
            imm: 0x1000,
        },
        // loop (2):
        load(3, 6, W),
        load(4, 6, W),
        alu(AluOp::Add, 5, 3, Operand::Reg(Reg(4))),
        store(5, 6, W),
        MInst::Bl { target: 12 },
        MInst::Out { rn: Reg(5) },
        alu(AluOp::Sub, 2, 2, Operand::Imm(1)),
        MInst::Cmp {
            rn: Reg(2),
            src2: Operand::Imm(0),
        },
        MInst::Bc {
            cond: Cond::Ne,
            target: 2,
        },
        MInst::B { target: 15 },
        // callee (12):
        alu(AluOp::Add, 5, 5, Operand::Imm(3)),
        alu(AluOp::Eor, 5, 5, Operand::Reg(Reg(2))),
        MInst::Ret,
        MInst::Halt,
    ]);
    sweep_fuel("loop+call", &p, &[]);

    // A compiled BITSPEC kernel that misspeculates: budgets that run out
    // inside the Δ-skeleton, the handler and the re-executed block.
    let w = Workload::from_source(
        "misspec",
        "global u32 n[1];
         void main() { u32 s = 0; for (u32 i = 0; i < n[0]; i++) { s = s + 1; } out(s); }",
    )
    .with_input("n", 260u32.to_le_bytes().to_vec())
    .with_train_input("n", 40u32.to_le_bytes().to_vec());
    let c = build(&w, &bitspec_ungated()).expect("build");
    let inputs = bitspec::resolve_inputs(&c.module, &w.inputs);
    let r = sim::run_program(&c.program, &SimConfig::default(), &inputs).expect("sim");
    assert!(r.counts.misspecs > 0, "kernel must misspeculate");
    sweep_fuel("misspec", &c.program, &inputs);
}

// Recycled memory: a dropped machine memory zeroes the pages it wrote and
// hands its buffer to the next run of the same size. A run that follows
// one that wrote every page of memory must see the same zeroed image.

/// Reads a zero-initialised global before writing it, so any byte a
/// recycled memory failed to zero changes its outputs.
const RECYCLE_SRC: &str = "global u32 buf[300];
     u32 walk(u32 n) {
        u32 s = 7;
        for (u32 i = 0; i < n; i++) { s = s * 3 + buf[i]; buf[i] = s; }
        return s;
     }
     void main() { out(walk(300)); out(buf[299]); }";

/// Stores a nonzero word every 64 bytes from the global base up, through
/// the stack at the top of memory, until the store past `mem_size` faults.
fn page_walk() -> Program {
    link(vec![
        MInst::MovImm {
            rd: Reg(1),
            imm: 0x100,
        },
        MInst::MovImm {
            rd: Reg(3),
            imm: 0xA5A5_A5A5,
        },
        store(3, 1, MemWidth::W),
        alu(AluOp::Add, 1, 1, Operand::Imm(64)),
        MInst::B { target: 2 },
        MInst::Halt,
    ])
}

fn dirty_every_page(cfg: &SimConfig) {
    let walked = sim::run_program(&page_walk(), cfg, &[]);
    assert!(
        matches!(walked, Err(SimError::MemFault { pc: 2, .. })),
        "the walk ends past the last byte: {walked:?}"
    );
}

#[test]
fn runs_after_a_dirtying_run_are_bit_identical() {
    let w = Workload::from_source("recycle", RECYCLE_SRC);
    let c = build(&w, &bitspec_ungated()).expect("build");
    let inputs = bitspec::resolve_inputs(&c.module, &w.inputs);
    for engine in [Engine::Reference, Engine::Turbo] {
        for dts in [false, true] {
            let cfg = SimConfig {
                dts,
                engine,
                ..SimConfig::default()
            };
            let run = || {
                let r = sim::run_program(&c.program, &cfg, &inputs).expect("sim");
                bitspec::wire::encode(&r)
            };
            let first = run();
            dirty_every_page(&cfg);
            assert_eq!(run(), first, "{engine:?}/dts={dts}");
        }
    }
}

#[test]
fn profile_runs_after_a_dirtying_run_are_identical() {
    // The interpreter's memory is the simulator's size, so the two share
    // recycled buffers.
    assert_eq!(interp::exec::DEFAULT_MEM_SIZE, backend::emit::MEM_SIZE);
    let m = lang::compile("recycle", RECYCLE_SRC).expect("compile");
    for reference in [false, true] {
        let profile = || {
            let mut i = interp::Interpreter::new(&m);
            i.set_reference(reference);
            i.enable_profiling();
            let r = i.run("main", &[]).expect("run");
            (
                r,
                bitspec::wire::encode(&i.take_profile().expect("profile")),
            )
        };
        let first = profile();
        dirty_every_page(&SimConfig::default());
        assert_eq!(profile(), first, "reference={reference}");
    }
}
