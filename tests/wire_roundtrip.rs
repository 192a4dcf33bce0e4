//! Wire-codec determinism over real pipeline artifacts: encode →
//! decode → re-encode must be bit-identical, and two independent cold
//! builds of the same cell must serialize to the same bytes — that
//! byte-stability is what makes the content-addressed store's "both
//! racers write identical bytes" publish contract true.
//!
//! Takes the same file-wide lock as the other pipeline tests: the stage
//! caches it clears between builds are process-global.

use bitspec::{build, simulate, stages, store, wire, BuildConfig, Workload};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn workload(tag: &str) -> Workload {
    let src = format!(
        "global u8 data[8]; // wire {tag}
         void main() {{
            u32 acc = 0;
            for (u32 i = 0; i < 8; i++) {{
               u32 v = data[i];
               acc = (acc << 1) ^ (v * 3);
            }}
            out(acc & 0xffff);
            out(acc >> 7);
         }}"
    );
    Workload::from_source(format!("wire_{tag}"), src)
        .with_input("data", vec![9, 1, 250, 3, 77, 0, 128, 64])
        .with_train_input("data", vec![2, 4, 6, 8, 10, 12, 14, 16])
}

#[test]
fn cell_roundtrip_is_bit_identical() {
    let _g = serial();
    let w = workload("cell");
    for cfg in [
        BuildConfig::bitspec(),
        BuildConfig::baseline(),
        BuildConfig {
            empirical_gate: false,
            ..BuildConfig::bitspec()
        },
    ] {
        let c = build(&w, &cfg).unwrap();
        let r = simulate(&c, &w).unwrap();
        let bytes = wire::encode_cell(&c, &r);
        let (c2, r2) = wire::decode_cell(&bytes).unwrap();
        // Semantics survive the trip…
        assert_eq!(r2.outputs, r.outputs);
        assert_eq!(r2.cycles, r.cycles);
        assert_eq!(r2.total_energy(), r.total_energy());
        assert_eq!(c2.profile, c.profile);
        assert_eq!(c2.used_squeezed, c.used_squeezed);
        assert_eq!(
            backend::program_fingerprint(&c2.program),
            backend::program_fingerprint(&c.program)
        );
        // …and so do the exact bytes: decode(encode(x)) re-encodes to
        // the same serialization, with nothing dropped or reordered.
        assert_eq!(wire::encode_cell(&c2, &r2), bytes, "cfg {cfg:?}");
    }
}

#[test]
fn independent_cold_builds_serialize_identically() {
    let _g = serial();
    // Two fully independent builds of the same (workload, config) cell
    // must produce byte-identical artifacts. `PassTrace.wall_ns` is the
    // one nondeterministic field, so compare the sim+program layers the
    // store actually keys on, plus the full sim result encoding.
    let w = workload("twice");
    let cfg = BuildConfig::bitspec();
    stages::clear();
    let a = build(&w, &cfg).unwrap();
    let ra = simulate(&a, &w).unwrap();
    stages::clear();
    let b = build(&w, &cfg).unwrap();
    let rb = simulate(&b, &w).unwrap();
    assert_eq!(
        backend::program_fingerprint(&a.program),
        backend::program_fingerprint(&b.program)
    );
    assert_eq!(
        wire::encode_sim_result(&ra),
        wire::encode_sim_result(&rb),
        "independent builds must serialize the sim result identically"
    );
    assert_eq!(a.profile, b.profile);
    assert_eq!(ra.outputs, rb.outputs);
}

#[test]
fn stage_payloads_roundtrip() {
    let _g = serial();
    let w = workload("stage");
    stages::clear();
    let c = build(&w, &BuildConfig::bitspec()).unwrap();
    // The profile stage payload: data → bytes → data must be lossless.
    let pd = stages::ProfileData {
        profile: c.profile.clone(),
        dyn_insts: c.profile_dyn_insts,
        traces: Vec::new(),
    };
    let pbytes = wire::encode_profile_data(&pd);
    let p2 = wire::decode_profile_data(&pbytes).unwrap();
    assert_eq!(p2.profile, c.profile);
    assert_eq!(p2.dyn_insts, c.profile_dyn_insts);
    assert_eq!(wire::encode_profile_data(&p2), pbytes);
    // Truncation anywhere inside the payload must error, not panic or
    // silently succeed.
    for cut in [0, 1, pbytes.len() / 2, pbytes.len() - 1] {
        assert!(
            wire::decode_profile_data(&pbytes[..cut]).is_err(),
            "truncation at {cut} must be a decode error"
        );
    }
    // Trailing garbage is rejected too (full-consumption check).
    let mut extended = pbytes.clone();
    extended.push(0);
    assert!(wire::decode_profile_data(&extended).is_err());
}

/// A `fnmir` payload whose instruction count claims far more elements
/// than the payload holds.
fn huge_length_fn_artifact() -> Vec<u8> {
    let mut bytes = vec![1, b'f'];
    let mut n: u64 = 1 << 40;
    while n >= 0x80 {
        bytes.push((n as u8) | 0x80);
        n >>= 7;
    }
    bytes.push(n as u8);
    bytes
}

#[test]
fn huge_fn_length_prefix_errors_and_recomputes() {
    let _g = serial();
    let bad = huge_length_fn_artifact();
    assert!(
        wire::decode_fn_artifact(&bad).is_err(),
        "an unbounded length prefix must be a decode error"
    );

    // Plant the payload, checksum-valid, under every function key of a
    // build; the memo must count each as corrupt and recompute it.
    let dir = std::env::temp_dir().join(format!("wire-fnmir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    store::configure(Some(&dir), None);
    let w = workload("fnmir");
    let cfg = BuildConfig {
        empirical_gate: false,
        ..BuildConfig::baseline()
    };
    stages::clear();
    let cold = build(&w, &cfg).unwrap();
    let m = &cold.module;
    let lfp = stages::layout_fingerprint(m, &interp::Layout::new(m));
    let opts = backend::CodegenOpts {
        bitspec: false,
        compact: false,
        spill_prefer_orig: cfg.spill_prefer_orig,
    };
    let active = store::active().expect("store configured");
    let n = m.func_ids().count() as u64;
    for fid in m.func_ids() {
        let key = stages::fn_key(m.func(fid), lfp, &opts, cfg.verify_each);
        active.put("fnmir", key, &bad);
    }
    stages::clear();
    let before = store::stats();
    let again = build(&w, &cfg).unwrap();
    let after = store::stats();
    store::configure(None, None);
    let _ = std::fs::remove_dir_all(&dir);
    stages::clear();

    assert_eq!(after.corrupt - before.corrupt, n, "every entry is corrupt");
    assert_eq!(again.stage_hits.fn_hits, 0, "nothing was served");
    assert_eq!(
        backend::program_fingerprint(&again.program),
        backend::program_fingerprint(&cold.program)
    );
}
