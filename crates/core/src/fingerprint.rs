//! Stable content fingerprints for the staged build pipeline.
//!
//! Every cacheable stage ([`crate::stages`]) and the bench artifact cache
//! key on FNV-1a hashes of *explicit fields* — never on `Debug` output,
//! whose formatting can change without any semantic difference (silently
//! splitting cache cells) or, worse, collapse distinct configurations into
//! one rendering (silently aliasing them). Multi-byte fields are
//! length-prefixed so adjacent variable-length inputs cannot alias
//! (`"ab" + "c"` vs `"a" + "bc"`).

use crate::{wire, BuildConfig, Compiled, SimConfig, Workload};
use sim::{EnergyModel, Engine};

/// An FNV-1a accumulator with length-prefixed framing helpers.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds raw bytes (no framing).
    pub fn write_raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a length-prefixed byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.write_raw(bytes);
    }

    /// Feeds a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Feeds a u64 (little-endian).
    pub fn u64(&mut self, x: u64) {
        self.write_raw(&x.to_le_bytes());
    }

    /// Feeds a u32 (little-endian).
    pub fn u32(&mut self, x: u32) {
        self.write_raw(&x.to_le_bytes());
    }

    /// Feeds one byte.
    pub fn u8(&mut self, x: u8) {
        self.write_raw(&[x]);
    }

    /// Feeds a bool as one byte.
    pub fn bool(&mut self, x: bool) {
        self.u8(u8::from(x));
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Feeds a named-input list ((global, bytes) pairs), framed.
pub(crate) fn eat_inputs(h: &mut Fnv, inputs: &[(String, Vec<u8>)]) {
    h.u64(inputs.len() as u64);
    for (g, data) in inputs {
        h.str(g);
        h.bytes(data);
    }
}

/// Hash of a workload's full identity: name, source, eval and train
/// inputs, and the profiling fuel bound (it changes which builds succeed).
pub fn workload_key(w: &Workload) -> u64 {
    let mut h = Fnv::new();
    h.str(&w.name);
    h.str(&w.source);
    eat_inputs(&mut h, &w.inputs);
    eat_inputs(&mut h, &w.train_inputs);
    h.u64(w.profile_fuel.unwrap_or(0));
    h.finish()
}

/// Structural hash of a build configuration: every field fed explicitly.
/// The exhaustive destructuring means adding a `BuildConfig` field without
/// deciding how it keys is a compile error, not a silent cache alias.
pub fn config_key(cfg: &BuildConfig) -> u64 {
    let BuildConfig {
        arch,
        heuristic,
        expander,
        compare_elim,
        bitmask_elision,
        spill_prefer_orig,
        dts,
        empirical_gate,
        verify_each,
        reference_profiler,
    } = cfg;
    let mut h = Fnv::new();
    // The wire codec's one-byte tags: one tag table for store and keys.
    h.write_raw(&wire::encode(arch));
    h.write_raw(&wire::encode(heuristic));
    let (unroll, max_func, max_loop, enabled) = expander.key_fields();
    h.u32(unroll);
    h.u64(max_func);
    h.u64(max_loop);
    h.bool(enabled);
    h.bool(*compare_elim);
    h.bool(*bitmask_elision);
    h.bool(*spill_prefer_orig);
    h.bool(*dts);
    h.bool(*empirical_gate);
    h.bool(*verify_each);
    // `reference_profiler` selects between two bit-identical profiler
    // engines; it is still keyed so a cell records which engine built it.
    h.bool(*reference_profiler);
    h.finish()
}

/// Cache key for one (workload, config) build+simulate artifact.
pub fn cell_key(w: &Workload, cfg: &BuildConfig) -> u64 {
    let mut h = Fnv::new();
    h.u64(workload_key(w));
    h.u64(config_key(cfg));
    h.finish()
}

/// Tags stay at their historical values (`1` was a removed engine), so
/// existing keys do not move.
fn engine_tag(e: Engine) -> u8 {
    match e {
        Engine::Reference => 0,
        Engine::Turbo => 2,
    }
}

/// Structural hash of a simulator configuration: every field fed
/// explicitly, energy constants by their exact bits. As with
/// [`config_key`], the exhaustive destructuring makes a new `SimConfig`
/// or `EnergyModel` field a compile error until it is keyed.
fn sim_config_key(cfg: &SimConfig) -> u64 {
    let SimConfig {
        dts,
        fuel,
        energy,
        engine,
    } = cfg;
    let EnergyModel {
        alu_slice,
        misspec_detect,
        mul,
        div,
        rf_slice_read,
        rf_slice_write,
        l1i_access,
        l1d_access,
        l2_access,
        dram_access,
        pipeline_cycle,
    } = energy;
    let mut h = Fnv::new();
    h.bool(*dts);
    h.u64(*fuel);
    for c in [
        alu_slice,
        misspec_detect,
        mul,
        div,
        rf_slice_read,
        rf_slice_write,
        l1i_access,
        l1d_access,
        l2_access,
        dram_access,
        pipeline_cycle,
    ] {
        h.u64(c.to_bits());
    }
    h.u8(engine_tag(*engine));
    h.finish()
}

/// Cache key of one simulation run ([`crate::stages::sim`]): the
/// program's [`backend::program_fingerprint`] `program_fp`, the inputs already resolved to the
/// `(address, bytes)` pairs the simulator installs, every `cfg` field,
/// and the build's own DTS flag `dts` (which the run ORs into `cfg`).
/// Everything the simulation reads is covered, so any two callers that
/// run the same program on the same memory image share one run.
pub fn sim_run_key(program_fp: u64, inputs: &[(u32, Vec<u8>)], cfg: &SimConfig, dts: bool) -> u64 {
    let mut h = Fnv::new();
    h.str("sim");
    h.u64(program_fp);
    h.u64(inputs.len() as u64);
    for (addr, data) in inputs {
        h.u32(*addr);
        h.bytes(data);
    }
    h.u64(sim_config_key(cfg));
    h.bool(dts);
    h.finish()
}

/// Cache key of one evaluation simulation ([`crate::simulate_with`] of
/// `compiled` on `inputs` under `cfg`): [`sim_run_key`] of the linked
/// program, the inputs resolved in `compiled`'s data layout, `cfg` and
/// the build's DTS flag.
///
/// # Panics
/// Panics when an input names no global of the compiled module.
pub fn sim_key(compiled: &Compiled, inputs: &[(String, Vec<u8>)], cfg: &SimConfig) -> u64 {
    sim_run_key(
        backend::program_fingerprint(&compiled.program),
        &crate::resolve_inputs(&compiled.module, inputs),
        cfg,
        compiled.config.dts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_prefix_prevents_concatenation_aliasing() {
        let mut a = Fnv::new();
        a.str("ab");
        a.str("c");
        let mut b = Fnv::new();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn workload_key_sees_every_component() {
        let base = Workload::from_source("w", "void main() { }");
        let k = workload_key(&base);
        assert_ne!(
            k,
            workload_key(&Workload::from_source("x", "void main() { }"))
        );
        assert_ne!(
            k,
            workload_key(&Workload::from_source("w", "void main() { out(1); }"))
        );
        assert_ne!(k, workload_key(&base.clone().with_input("g", vec![1])));
        assert_ne!(
            k,
            workload_key(&base.clone().with_train_input("g", vec![1]))
        );
        // Same bytes as eval vs train input must differ.
        assert_ne!(
            workload_key(&base.clone().with_input("g", vec![1])),
            workload_key(&base.clone().with_train_input("g", vec![1])),
        );
    }
}
