//! Deterministic property tests of the simulator substrates: cache
//! accounting, memory round-trips, and ALU/flag semantics against a
//! reference model. Former proptest strategies are replaced by seeded
//! SplitMix64 streams so the suite runs offline.

use sim::cache::{Cache, Hierarchy};

/// Minimal SplitMix64 stream for address/value synthesis.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// Cache accounting conserves: hits + misses == accesses, and a
/// just-accessed line always hits immediately after.
#[test]
fn cache_conservation() {
    for seed in 0u64..16 {
        let mut rng = Rng(seed);
        let n = rng.range(1, 200) as usize;
        let addrs: Vec<u32> = (0..n).map(|_| rng.range(0, 1_000_000) as u32).collect();
        let writes: Vec<bool> = (0..n).map(|_| rng.next_u64() & 1 == 1).collect();
        let mut c = Cache::new(8 << 10, 4, 32);
        for (a, w) in addrs.iter().zip(&writes) {
            c.access(*a, *w);
            assert_eq!(c.access(*a, false), sim::cache::Outcome::Hit);
        }
        assert_eq!(c.accesses(), 2 * addrs.len() as u64);
        assert!(c.misses <= addrs.len() as u64);
        assert!(c.writebacks <= c.misses);
    }
}

/// Hierarchy latencies are bounded and warm accesses are free.
#[test]
fn hierarchy_latency_bounds() {
    for seed in 0u64..8 {
        let mut rng = Rng(seed);
        let n = rng.range(1, 100) as usize;
        let mut h = Hierarchy::default();
        let max = h.l2_latency + h.dram_latency;
        for _ in 0..n {
            let a = rng.range(0, 1_000_000) as u32;
            let stall = h.data(a, false);
            assert!(stall == 0 || stall == h.l2_latency || stall == max);
            assert_eq!(h.data(a, false), 0, "warm access must hit");
        }
    }
}

/// Memory round-trips arbitrary values at every width/alignment.
#[test]
fn memory_roundtrip() {
    let mut rng = Rng(0xC0FFEE);
    let mut m = interp::Memory::new(1 << 16);
    for _ in 0..64 {
        let addr = rng.range(0x100, 0xF000) as u32;
        let v = rng.next_u64();
        for w in [
            sir::Width::W8,
            sir::Width::W16,
            sir::Width::W32,
            sir::Width::W64,
        ] {
            m.store(addr, w, v).unwrap();
            assert_eq!(m.load(addr, w).unwrap(), w.truncate(v));
        }
    }
}

/// The reference and turbo engines agree on small synthetic kernels, with
/// DTS off and on, chosen to hit turbo's distinct execution shapes: pure
/// straight-line blocks, tight taken-branch loops, calls/returns, and
/// misspeculation redirects that enter skeleton code mid-block.
#[test]
fn engines_agree_on_synthetic_kernels() {
    use bitspec::{build, simulate_with, BuildConfig, Engine, SimConfig, Workload};
    let kernels: &[(&str, &str)] = &[
        (
            "straightline",
            "void main() { u32 a = 3; u32 b = a * 7; u32 c = b - a; out(a + b + c); }",
        ),
        (
            "looped",
            "void main() { u32 s = 0; for (u32 i = 0; i < 300; i++) { s += i & 31; } out(s); }",
        ),
        (
            "calls",
            "u32 f(u32 x) { return x * 3 + 1; }
             void main() { u32 s = 0; for (u32 i = 0; i < 50; i++) { s += f(i); } out(s); }",
        ),
        (
            // Trains small, evaluates past 255: the squeezed adds must
            // misspeculate and recover through the Δ-skeleton.
            "misspec",
            "global u32 n[1];
             void main() { u32 s = 0; for (u32 i = 0; i < n[0]; i++) { s = s + 1; } out(s); }",
        ),
    ];
    for &(name, src) in kernels {
        let mut w = Workload::from_source(name, src);
        if name == "misspec" {
            w = w
                .with_input("n", 600u32.to_le_bytes().to_vec())
                .with_train_input("n", 40u32.to_le_bytes().to_vec());
        }
        for cfg in [BuildConfig::baseline(), BuildConfig::bitspec()] {
            let c = build(&w, &cfg).expect("build");
            for dts in [false, true] {
                let [refr, turbo] = [Engine::Reference, Engine::Turbo].map(|e| {
                    let sc = SimConfig {
                        dts,
                        engine: e,
                        ..SimConfig::default()
                    };
                    simulate_with(&c, &w, &sc).expect("sim")
                });
                let tag = if dts { "turbo-dts" } else { "turbo" };
                assert_eq!(turbo.outputs, refr.outputs, "{name}/{tag}: outputs");
                assert_eq!(turbo.cycles, refr.cycles, "{name}/{tag}: cycles");
                assert_eq!(turbo.counts, refr.counts, "{name}/{tag}: counts");
                assert_eq!(turbo.activity, refr.activity, "{name}/{tag}: activity");
            }
        }
    }
}

/// Differential ALU check: machine-level slice arithmetic agrees with the
/// IR interpreter's speculative evaluation for every op/operand pair.
#[test]
fn slice_alu_matches_interpreter_semantics() {
    use interp::exec::spec_bin;
    use sir::BinOp;
    for a in 0u64..=255 {
        for b in [0u64, 1, 7, 8, 9, 127, 128, 200, 255] {
            for op in [
                BinOp::Add,
                BinOp::Sub,
                BinOp::And,
                BinOp::Or,
                BinOp::Xor,
                BinOp::Shl,
                BinOp::Lshr,
                BinOp::Ashr,
            ] {
                // The IR model: None = misspeculation.
                let ir = spec_bin(op, a, b);
                // The machine model mirror (from machine.rs semantics).
                let machine: Option<u64> = match op {
                    BinOp::Add => {
                        let r = a + b;
                        if r > 0xFF {
                            None
                        } else {
                            Some(r)
                        }
                    }
                    BinOp::Sub => {
                        if a < b {
                            None
                        } else {
                            Some(a - b)
                        }
                    }
                    BinOp::Shl => {
                        if b >= 8 {
                            if a == 0 {
                                Some(0)
                            } else {
                                None
                            }
                        } else {
                            let r = a << b;
                            if r > 0xFF {
                                None
                            } else {
                                Some(r)
                            }
                        }
                    }
                    BinOp::Lshr => Some(if b >= 8 { 0 } else { a >> b }),
                    BinOp::Ashr => {
                        let sa = (a as u8 as i8) >> b.min(7);
                        Some((sa as u8) as u64)
                    }
                    BinOp::And => Some(a & b),
                    BinOp::Or => Some(a | b),
                    BinOp::Xor => Some(a ^ b),
                    _ => unreachable!(),
                };
                assert_eq!(ir, machine, "op={op:?} a={a} b={b}");
            }
        }
    }
}
