//! # sim — the BITSPEC microarchitecture simulator (§3.5, §4.1)
//!
//! Models the paper's evaluation platform: a 32-bit, 6-stage, single-issue,
//! in-order pipeline with 8 KiB 4-way L1 instruction and data caches, a
//! shared 256 KiB L2, and fixed-latency DRAM. The BITSPEC extensions are a
//! byte-sliced register file (8-bit slice access at ¼ the energy of a
//! 32-bit access), a segmented ALU with per-slice misspeculation detection,
//! and the `pc ← pc + Δ` misspeculation redirect.
//!
//! The paper obtains energy from a 45 nm gate-level implementation; our
//! substitution (DESIGN.md) is an activity-based model: the simulator
//! counts component events (ALU slice operations, register-file slice
//! accesses, cache/DRAM transactions, pipeline cycles including stalls) and
//! [`energy`] weighs them with per-event energies calibrated to plausible
//! 45 nm values. Relative results — the figures — depend on the ratios, not
//! the absolute scale.
//!
//! [`dts::DtsModel`] adds the dynamic-timing-slack mode of RQ8 (per-
//! instruction-class clock/voltage scaling via the alpha-power law, with a
//! RazorII-style recovery overhead).
//!
//! Two engines run the machine ([`Engine`]): the block-fused turbo engine,
//! the default for plain and DTS runs alike, and the per-step reference
//! engine it is held bit-identical to (`tests/equivalence.rs`).

pub mod cache;
pub mod dts;
pub mod energy;
pub mod machine;
mod turbo;

pub use energy::{EnergyBreakdown, EnergyModel};
pub use machine::{Engine, SimConfig, SimError, SimResult, Simulator};

/// Convenience: simulate `program` to completion with `config`, installing
/// `inputs` (global name is resolved by the caller to an address) first.
///
/// # Errors
/// Propagates simulator faults (out-of-bounds access, fuel exhaustion).
pub fn run_program(
    program: &backend::Program,
    config: &SimConfig,
    inputs: &[(u32, Vec<u8>)],
) -> Result<SimResult, SimError> {
    let mut sim = Simulator::new(program, config);
    for (addr, data) in inputs {
        sim.install(*addr, data);
    }
    sim.run()
}

/// Simulates `program` once per entry of `input_sets`: one independent
/// [`run_program`] call each, results in input order.
pub fn run_batch(
    program: &backend::Program,
    config: &SimConfig,
    input_sets: &[Vec<(u32, Vec<u8>)>],
) -> Vec<Result<SimResult, SimError>> {
    input_sets
        .iter()
        .map(|inputs| run_program(program, config, inputs))
        .collect()
}
