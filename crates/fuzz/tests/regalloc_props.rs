//! Property tests for `backend::regalloc` over generated programs.
//!
//! For a seeded sweep of fuzzer-generated programs — both the frontend
//! module and squeezed modules with live speculative regions — every
//! function's allocation must satisfy [`backend::regalloc::validate`]:
//! no two live-overlapping vregs share a register slice, and frame slots
//! are pairwise disjoint. The squeezed variants matter most: handler-edge
//! liveness (equation 2) and write-through homing only arise there.
//!
//! The same invariants, plus the post-allocation SMIR verifier, are checked
//! on real workloads: every function of every suite cell's final module
//! under that cell's codegen options.

use backend::mir_verify::verify_allocated;
use backend::regalloc::{allocate, validate};
use backend::{isel, CodegenOpts};
use bitspec::{Arch, BuildConfig, Workload};
use fuzz::gen::generate;
use interp::Heuristic;
use std::collections::HashSet;

/// Allocates every function of `m` under `opts` and validates it.
fn validate_module(m: &sir::Module, opts: &CodegenOpts, what: &str) {
    let layout = interp::Layout::new(m);
    for fid in m.func_ids() {
        let mir = isel::select_function(m, fid, &layout, opts);
        let a = allocate(mir, opts);
        if let Err(e) = validate(&a) {
            panic!("{what}: allocation invariant violated: {e}");
        }
    }
}

/// The expanded + simplified (unsqueezed) module, as codegen receives it.
/// Raw frontend output is not a valid codegen input — the pipeline's
/// simplify pass folds shift amounts to immediates first.
fn baseline_module(w: &Workload, seed: u64) -> sir::Module {
    let c = bitspec::build(w, &BuildConfig::baseline())
        .unwrap_or_else(|e| panic!("seed {seed} does not build: {e}"));
    (*c.module).clone()
}

#[test]
fn generated_programs_allocate_validly() {
    for seed in 0..40 {
        let case = generate(seed);
        let m = baseline_module(&case.workload(), seed);
        for spill_prefer_orig in [true, false] {
            let opts = CodegenOpts {
                spill_prefer_orig,
                ..CodegenOpts::default()
            };
            validate_module(
                &m,
                &opts,
                &format!("seed {seed} (prefer_orig={spill_prefer_orig})"),
            );
        }
    }
    bitspec::stages::clear();
}

#[test]
fn squeezed_programs_allocate_validly() {
    // The Min heuristic squeezes hardest, producing the most regions,
    // handlers and handler-extended live ranges.
    for seed in 0..20 {
        let case = generate(seed);
        let w: Workload = case.workload();
        for h in [Heuristic::Min, Heuristic::Max] {
            let cfg = BuildConfig {
                empirical_gate: false,
                ..BuildConfig::bitspec_with(h)
            };
            let c = bitspec::build(&w, &cfg)
                .unwrap_or_else(|e| panic!("seed {seed} {h:?} does not build: {e}"));
            for spill_prefer_orig in [true, false] {
                let opts = CodegenOpts {
                    spill_prefer_orig,
                    ..CodegenOpts::default()
                };
                validate_module(
                    &c.module,
                    &opts,
                    &format!("seed {seed} {h:?} (prefer_orig={spill_prefer_orig})"),
                );
            }
        }
    }
    bitspec::stages::clear();
}

#[test]
fn compact_mode_allocates_validly() {
    for seed in 0..15 {
        let case = generate(seed);
        let m = baseline_module(&case.workload(), seed);
        let opts = CodegenOpts {
            bitspec: false,
            compact: true,
            ..CodegenOpts::default()
        };
        validate_module(&m, &opts, &format!("seed {seed} (compact)"));
    }
    bitspec::stages::clear();
}

/// The codegen options `bitspec::build` derives from a configuration.
fn codegen_opts(cfg: &BuildConfig) -> CodegenOpts {
    CodegenOpts {
        bitspec: matches!(cfg.arch, Arch::BitSpec | Arch::NoSpec),
        compact: cfg.arch == Arch::Compact,
        spill_prefer_orig: cfg.spill_prefer_orig,
    }
}

#[test]
fn suite_cells_allocate_validly() {
    let mut seen = HashSet::new();
    for name in mibench::names() {
        let w = mibench::workload(name, mibench::Input::Large);
        for cfg in bench::suite_configs() {
            let c = bitspec::build(&w, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
            let opts = codegen_opts(&cfg);
            // The options are the cell's own: recompiling reproduces its program.
            let p = backend::compile_module(&c.module, &opts);
            assert_eq!(
                backend::program_fingerprint(&p),
                backend::program_fingerprint(&c.program),
                "{name} {:?}: codegen options differ from the build's",
                cfg.arch
            );
            // Cells that share a final module and options allocate identically.
            let CodegenOpts {
                bitspec,
                compact,
                spill_prefer_orig,
            } = opts;
            let key = (
                sir::pass::ir_fingerprint(&c.module),
                bitspec,
                compact,
                spill_prefer_orig,
            );
            if !seen.insert(key) {
                continue;
            }
            let layout = interp::Layout::new(&c.module);
            for fid in c.module.func_ids() {
                let mir = isel::select_function(&c.module, fid, &layout, &opts);
                let a = allocate(mir, &opts);
                let what = format!("{name} {:?} {}", cfg.arch, a.mir.name);
                if let Err(e) = validate(&a) {
                    panic!("{what}: allocation invariant violated: {e}");
                }
                let diags = verify_allocated(&a);
                assert!(diags.is_empty(), "{what}: {diags:?}");
            }
        }
    }
    bitspec::stages::clear();
}
