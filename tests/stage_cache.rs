//! Stage-cache correctness: which pipeline stages are shared, and which
//! config/input changes invalidate them.
//!
//! The staged pipeline memoizes frontend, expansion and the profiling run
//! process-wide. Downstream knobs (squeezer heuristic, §3.2.4 ablations,
//! backend options, the empirical gate) must *reuse* the cached profile;
//! training inputs are upstream of it and must *invalidate* it. Expander
//! knobs invalidate the expansion, but everything below it is keyed on
//! the expanded module's content: a knob change that expands to a
//! different module invalidates the profile, one that expands to the same
//! module reuses it (early cutoff). Assertions use the per-build
//! [`bitspec::StageHits`] plus the global hit/miss counters.
//!
//! Each test seeds the cache with one build and then varies exactly one
//! knob, checking the second build's hit pattern. Every test uses its own
//! unique source (no shared cells) and takes a file-wide lock: the caches
//! and their counters are process-global, so concurrent tests would
//! otherwise race the counter deltas.

use bitspec::pipeline::{PrintAfter, TracePolicy, Tracer};
use bitspec::{
    build, memo, stages, Arch, BitwidthHeuristic, BuildConfig, ExpanderConfig, Workload,
};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A workload with a `tag`-unique source (so tests cannot share cells) and
/// a training input distinct from the eval input.
fn unique_workload(tag: &str) -> Workload {
    let src = format!(
        "global u8 seed[1]; // {tag}
         void main() {{
            u32 s = 0;
            for (u32 i = 0; i < 60; i++) {{ s += (i ^ seed[0]) & 31; }}
            out(s);
         }}"
    );
    Workload::from_source(format!("cache_{tag}"), src)
        .with_input("seed", vec![5])
        .with_train_input("seed", vec![3])
}

#[test]
fn cold_build_misses_every_stage() {
    let _g = serial();
    let w = unique_workload("cold");
    let c = build(&w, &BuildConfig::bitspec()).unwrap();
    assert!(!c.stage_hits.front);
    assert!(!c.stage_hits.expand);
    assert!(!c.stage_hits.profile);
}

#[test]
fn identical_build_hits_every_stage() {
    let _g = serial();
    let w = unique_workload("warm");
    build(&w, &BuildConfig::bitspec()).unwrap();
    let c = build(&w, &BuildConfig::bitspec()).unwrap();
    assert!(c.stage_hits.front);
    assert!(c.stage_hits.expand);
    assert!(c.stage_hits.profile);
}

#[test]
fn squeeze_config_change_reuses_cached_profile() {
    let _g = serial();
    let w = unique_workload("squeeze");
    build(&w, &BuildConfig::bitspec()).unwrap();
    // Heuristic, §3.2.4 ablations, arch, backend spill policy and the gate
    // are all downstream of the profiler: full stage reuse.
    for cfg in [
        BuildConfig::bitspec_with(BitwidthHeuristic::Min),
        BuildConfig::bitspec_with(BitwidthHeuristic::Avg),
        BuildConfig {
            compare_elim: false,
            ..BuildConfig::bitspec()
        },
        BuildConfig {
            bitmask_elision: false,
            ..BuildConfig::bitspec()
        },
        BuildConfig {
            spill_prefer_orig: false,
            ..BuildConfig::bitspec()
        },
        BuildConfig {
            empirical_gate: false,
            ..BuildConfig::bitspec()
        },
        BuildConfig {
            arch: Arch::NoSpec,
            ..BuildConfig::bitspec()
        },
        BuildConfig::baseline(),
    ] {
        let c = build(&w, &cfg).unwrap();
        assert!(c.stage_hits.front, "front miss under {cfg:?}");
        assert!(c.stage_hits.expand, "expand miss under {cfg:?}");
        assert!(c.stage_hits.profile, "profile miss under {cfg:?}");
    }
}

/// The content key of `w`'s expanded module under `e`, computed under a
/// print-after policy, which bypasses the memos, so that nothing is
/// published for the builds under test.
fn expanded_content(w: &Workload, e: &ExpanderConfig) -> u64 {
    let mut tr = Tracer::new(TracePolicy {
        print_after: PrintAfter::Pass("expand".to_string()),
        ..TracePolicy::verify(true)
    });
    let (expanded, _) = stages::expand(w, e, &mut tr).unwrap();
    stages::content_key(&expanded)
}

#[test]
fn expander_change_invalidates_expand_and_profile_but_not_front() {
    let _g = serial();
    let w = unique_workload("expander");
    build(&w, &BuildConfig::bitspec()).unwrap();
    let unrolled = ExpanderConfig {
        unroll_factor: 2,
        ..ExpanderConfig::default()
    };
    assert_ne!(
        expanded_content(&w, &ExpanderConfig::default()),
        expanded_content(&w, &unrolled),
        "the loop must unroll differently, or this test proves nothing"
    );
    let cfg = BuildConfig {
        expander: unrolled,
        ..BuildConfig::bitspec()
    };
    let c = build(&w, &cfg).unwrap();
    assert!(c.stage_hits.front, "frontend is upstream of the expander");
    assert!(!c.stage_hits.expand, "expander knob must invalidate expand");
    assert!(
        !c.stage_hits.profile,
        "a different expanded module must invalidate profile"
    );
}

#[test]
fn expander_change_to_the_same_module_reuses_profile_and_gate_leg() {
    let _g = serial();
    // The workload has no calls, so the inliner's function-size budget
    // never binds: changing it changes the expand key, not the module.
    let w = unique_workload("cutoff");
    let budget = ExpanderConfig {
        max_func_size: ExpanderConfig::default().max_func_size + 1,
        ..ExpanderConfig::default()
    };
    let first = BuildConfig::bitspec();
    let second = BuildConfig {
        expander: budget,
        ..BuildConfig::bitspec()
    };
    assert_eq!(
        expanded_content(&w, &first.expander),
        expanded_content(&w, &second.expander),
        "both configs must expand to the same module"
    );
    let a = build(&w, &first).unwrap();
    assert!(a.squeeze.narrowed > 0, "the gate must actually run");
    let before = memo::stats();
    let b = build(&w, &second).unwrap();
    let moved = memo::stats().since(&before);
    assert!(!b.stage_hits.expand, "the expand key still sees the knobs");
    assert!(b.stage_hits.profile, "same module, same profile");
    assert_eq!(moved.get("profile").misses, 0);
    assert!(
        moved.get("gate").hits > 0 && moved.get("gate").misses == 0,
        "same module, same gate reference leg: {:?}",
        moved.get("gate")
    );
    assert_eq!(a.profile, b.profile);
    assert_eq!(
        bitspec::program_fingerprint(&a.program),
        bitspec::program_fingerprint(&b.program)
    );
}

#[test]
fn train_input_change_invalidates_profile_but_not_expand() {
    let _g = serial();
    let w = unique_workload("train");
    build(&w, &BuildConfig::bitspec()).unwrap();
    let mut w2 = w.clone();
    w2.train_inputs = vec![("seed".to_string(), vec![9])];
    let c = build(&w2, &BuildConfig::bitspec()).unwrap();
    assert!(c.stage_hits.front, "train inputs don't touch the frontend");
    assert!(c.stage_hits.expand, "train inputs don't touch the expander");
    assert!(!c.stage_hits.profile, "train inputs feed the profiler");
}

#[test]
fn eval_input_change_preserves_all_stages() {
    let _g = serial();
    // Eval inputs are downstream of the whole build (simulation only), but
    // careful: train falls back to eval when empty — here train is set, so
    // the profile stage must survive an eval change.
    let w = unique_workload("eval");
    build(&w, &BuildConfig::bitspec()).unwrap();
    let mut w2 = w.clone();
    w2.inputs = vec![("seed".to_string(), vec![8])];
    let c = build(&w2, &BuildConfig::bitspec()).unwrap();
    assert!(c.stage_hits.front && c.stage_hits.expand && c.stage_hits.profile);
}

#[test]
fn eval_input_change_invalidates_profile_when_train_falls_back() {
    let _g = serial();
    let mut w = unique_workload("fallback");
    w.train_inputs.clear(); // profiler now trains on the eval inputs
    build(&w, &BuildConfig::bitspec()).unwrap();
    let mut w2 = w.clone();
    w2.inputs = vec![("seed".to_string(), vec![8])];
    let c = build(&w2, &BuildConfig::bitspec()).unwrap();
    assert!(c.stage_hits.front && c.stage_hits.expand);
    assert!(!c.stage_hits.profile, "resolved train inputs changed");
}

#[test]
fn source_change_invalidates_everything() {
    let _g = serial();
    let w = unique_workload("source_a");
    build(&w, &BuildConfig::bitspec()).unwrap();
    let mut w2 = w.clone();
    w2.source = w.source.replace("& 31", "& 15");
    let c = build(&w2, &BuildConfig::bitspec()).unwrap();
    assert!(!c.stage_hits.front);
    assert!(!c.stage_hits.expand);
    assert!(!c.stage_hits.profile);
}

#[test]
fn reference_profiler_flag_shares_the_profile_cell() {
    let _g = serial();
    // Both engines are bit-identical by contract, so the engine choice is
    // deliberately not part of the profile stage key.
    let w = unique_workload("engine");
    let a = build(&w, &BuildConfig::bitspec()).unwrap();
    let cfg = BuildConfig {
        reference_profiler: true,
        ..BuildConfig::bitspec()
    };
    let b = build(&w, &cfg).unwrap();
    assert!(
        b.stage_hits.profile,
        "engine choice must not split the cell"
    );
    assert_eq!(a.profile, b.profile);
}

#[test]
fn gated_sweep_shares_the_unsqueezed_reference_leg() {
    let _g = serial();
    let w = unique_workload("gateleg");
    let before = memo::stats();
    let a = build(&w, &BuildConfig::bitspec()).unwrap();
    assert!(a.squeeze.narrowed > 0, "gate must actually run");
    let mid = memo::stats();
    assert!(
        mid.get("gate").misses > before.get("gate").misses,
        "first gate leg is cold"
    );
    // Configs differing only in squeezer knobs (ablation, heuristic, even
    // the NoSpec arch) share the expanded module and backend options, so
    // the gate's unsqueezed compile + train-sim must be a cache hit.
    for cfg in [
        BuildConfig {
            compare_elim: false,
            ..BuildConfig::bitspec()
        },
        BuildConfig::bitspec_with(BitwidthHeuristic::Min),
        BuildConfig {
            arch: Arch::NoSpec,
            ..BuildConfig::bitspec()
        },
    ] {
        let h = memo::stats().get("gate").hits;
        build(&w, &cfg).unwrap();
        assert!(
            memo::stats().get("gate").hits > h,
            "gate leg recomputed under {cfg:?}"
        );
    }
    // A backend-option change is part of the leg's key and must miss.
    let m = memo::stats().get("gate").misses;
    build(
        &w,
        &BuildConfig {
            spill_prefer_orig: false,
            ..BuildConfig::bitspec()
        },
    )
    .unwrap();
    assert!(
        memo::stats().get("gate").misses > m,
        "backend opts must split the cell"
    );
}

#[test]
fn counters_move_and_results_are_unchanged_by_caching() {
    let _g = serial();
    let w = unique_workload("counters");
    let before = memo::stats();
    let cold = build(&w, &BuildConfig::bitspec()).unwrap();
    let mid = memo::stats();
    for kind in ["front", "expand", "profile"] {
        assert!(mid.get(kind).misses > before.get(kind).misses, "{kind}");
    }
    let warm = build(&w, &BuildConfig::bitspec()).unwrap();
    let warm_hits = memo::stats().since(&mid);
    assert!(["front", "expand", "profile"]
        .iter()
        .any(|kind| warm_hits.get(kind).hits > 0));
    // Caching must be semantically invisible.
    assert_eq!(cold.profile, warm.profile);
    assert_eq!(cold.profile_dyn_insts, warm.profile_dyn_insts);
    assert_eq!(cold.squeeze.narrowed, warm.squeeze.narrowed);
    assert_eq!(cold.used_squeezed, warm.used_squeezed);
}
