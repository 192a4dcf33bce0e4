//! Function-granular codegen cache: invalidation precision and output
//! fidelity.
//!
//! The backend cache in [`bitspec::stages`] keys each function's compiled
//! artifact on its own SIR content, the global data layout, the codegen
//! options and the verify flag — nothing else. These tests pin down the
//! contract from both sides on the synthetic `mibench::multifn` workload
//! (expander disabled, so its k+1 functions stay separate backend
//! compilation units):
//!
//! * **Precision** — editing one function's constant recompiles exactly
//!   that function; every untouched function (including `main`, whose
//!   call sites reference callees by id, not name) is served from cache.
//! * **No false hits** — renaming a function changes its fingerprint
//!   (the name is diagnostic output, so serving a stale artifact would
//!   mislabel the program); reordering functions shifts callee ids and
//!   must recompile exactly the callers that embed them.
//! * **Fidelity** — cache-assembled programs are bit-identical to cold
//!   builds: fingerprints, addresses, layout Δ tables and simulated
//!   outputs all match. The function cache is memory-only.
//!
//! The caches and their counters are process-global, so every test takes
//! a file-wide lock and uses source text distinct from other tests'
//! (distinct `k`/`edit`).

use bitspec::{build, program_fingerprint, simulate, stages, BuildConfig, Compiled, Workload};
use mibench::multifn_source;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Baseline config with the expander off (multifn's functions must reach
/// the backend uninlined) and the gate off (one codegen call per build).
fn cfg() -> BuildConfig {
    let mut c = BuildConfig::baseline();
    c.expander.enabled = false;
    c.empirical_gate = false;
    c
}

fn workload_from(src: String) -> Workload {
    let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
    Workload::from_source("fn_cache", src).with_input("input", data)
}

fn multifn(k: usize, edit: u32) -> Workload {
    workload_from(multifn_source(k, edit))
}

/// Builds from a fully cold cache.
fn cold(w: &Workload) -> Compiled {
    stages::clear();
    build(w, &cfg()).expect("cold build")
}

/// Asserts two programs are bit-identical: instruction image, addresses,
/// function table, and the Δ-skeleton layout table.
fn assert_identical(a: &Compiled, b: &Compiled) {
    assert_eq!(
        program_fingerprint(&a.program),
        program_fingerprint(&b.program)
    );
    assert_eq!(a.program.addrs, b.program.addrs);
    assert_eq!(a.program.func_entries, b.program.func_entries);
    assert_eq!(a.program.func_names, b.program.func_names);
    assert_eq!(a.program.spec_targets, b.program.spec_targets);
}

#[test]
fn one_function_edit_recompiles_only_that_function() {
    let _g = serial();
    let k = 12;
    let c0 = cold(&multifn(k, 0));
    assert_eq!(c0.stage_hits.fn_hits, 0, "cold build must miss every fn");
    assert_eq!(c0.stage_hits.fn_total, k as u32 + 1);

    // One constant in f0 changed: f0 misses, the other k-1 mixers and
    // main (callee ids unchanged) hit.
    let c1 = build(&multifn(k, 1), &cfg()).expect("edited build");
    assert_eq!(c1.stage_hits.fn_hits, k as u32);
    assert_eq!(c1.stage_hits.fn_total, k as u32 + 1);

    // The cache-assembled program is bit-identical to a cold build of
    // the same edited source, and simulates identically.
    let c1_cold = cold(&multifn(k, 1));
    assert_identical(&c1, &c1_cold);
    let w = multifn(k, 1);
    let r_warm = simulate(&c1, &w).expect("sim warm");
    let r_cold = simulate(&c1_cold, &w).expect("sim cold");
    assert_eq!(r_warm.outputs, r_cold.outputs);
}

#[test]
fn distinct_edits_never_alias() {
    let _g = serial();
    let k = 8;
    cold(&multifn(k, 100));
    let mut fps = Vec::new();
    for edit in 101..105u32 {
        // Each edit differs from the primed build in exactly f0, so each
        // incremental build must miss exactly once — a false hit here
        // would mean two distinct function bodies aliased one key.
        let c = build(&multifn(k, edit), &cfg()).expect("edited build");
        assert_eq!(
            (c.stage_hits.fn_hits, c.stage_hits.fn_total),
            (k as u32, k as u32 + 1),
            "edit {edit}: expected exactly one recompiled function"
        );
        fps.push(program_fingerprint(&c.program));
    }
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(fps.len(), 4, "distinct edits must yield distinct programs");
}

#[test]
fn rename_invalidates_the_renamed_function() {
    let _g = serial();
    let k = 6;
    let base = multifn_source(k, 7);
    cold(&workload_from(base.clone()));

    // Rename f3 → f3q (definition and call site). The SIR call in main
    // resolves to the same callee id, so main still hits; f3q's
    // fingerprint covers the name, so it must miss — a false hit would
    // link a program whose function table still says "f3".
    let renamed = base.replace("f3(", "f3q(");
    assert_ne!(base, renamed);
    let c = build(&workload_from(renamed.clone()), &cfg()).expect("renamed build");
    assert_eq!(c.stage_hits.fn_hits, k as u32);
    assert_eq!(c.stage_hits.fn_total, k as u32 + 1);
    assert!(c.program.func_names.iter().any(|n| n == "f3q"));
    assert!(c.program.func_names.iter().all(|n| n != "f3"));
    assert_identical(&c, &cold(&workload_from(renamed)));
}

#[test]
fn reorder_recompiles_only_the_callers() {
    let _g = serial();
    let k = 5;
    let base = multifn_source(k, 9);
    let w_base = workload_from(base.clone());
    let c_base = cold(&w_base);

    // Swap the definitions of f1 and f2. Their bodies are unchanged (a
    // function's fingerprint is position-independent) but main's call
    // instructions now embed swapped callee ids, so exactly main must
    // recompile.
    let a = base.find("u32 f1(").expect("f1 def");
    let b = base.find("u32 f2(").expect("f2 def");
    let c = base.find("u32 f3(").expect("f3 def");
    let reordered = format!("{}{}{}{}", &base[..a], &base[b..c], &base[a..b], &base[c..]);
    let w_re = workload_from(reordered);
    let c_re = build(&w_re, &cfg()).expect("reordered build");
    assert_eq!(c_re.stage_hits.fn_hits, k as u32);
    assert_eq!(c_re.stage_hits.fn_total, k as u32 + 1);
    assert_eq!(c_re.program.func_names[1], "f2");
    assert_eq!(c_re.program.func_names[2], "f1");
    assert_ne!(
        program_fingerprint(&c_base.program),
        program_fingerprint(&c_re.program),
        "reordering changes the linked image"
    );
    assert_identical(&c_re, &cold(&w_re));

    // The mixers fold through xor, so the observable outputs are
    // order-independent even though the images differ.
    let r_base = simulate(&c_base, &w_base).expect("sim base");
    let r_re = simulate(&c_re, &w_re).expect("sim reordered");
    assert_eq!(r_base.outputs, r_re.outputs);
}
