//! Pass-trace smoke: a BITSPEC build's JSON trace parses, names every
//! registered pass, and carries nonzero timings and IR deltas.

use bitspec::{build, pipeline, stages, BuildConfig, Workload};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Both tests build the same workload and clear the process-wide stage
/// caches, so one's `clear` could land between the other's cold and warm
/// builds; they run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A workload the expander cannot fold away and the squeezer narrows, so
/// the empirical gate runs and every registered pass appears. The source
/// is unique to this binary to keep its cold-build path deterministic.
fn traced_workload() -> Workload {
    let data: Vec<u8> = (0..64u32).map(|i| (i * 29 + 7) as u8).collect();
    Workload::from_source(
        "pass_trace_smoke",
        "global u8 data[64];
         void main() {
            u32 s = 0;
            for (u32 i = 0; i < 60; i++) { s += (data[i & 63] ^ i) & 31; }
            out(s);
         }",
    )
    .with_input("data", data)
}

/// Minimal JSON scanner for the flat trace schema: splits the top-level
/// array into objects and extracts scalar fields by key. Not a general
/// parser — it exists so the test fails loudly if the schema breaks.
fn objects(json: &str) -> Vec<String> {
    let body = json
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .expect("trace is a JSON array");
    let mut objs = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    for (i, ch) in body.char_indices() {
        match ch {
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    objs.push(body[start.take().expect("open brace")..=i].to_string());
                }
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced braces in trace JSON");
    objs
}

fn field<'a>(obj: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let at = obj
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {obj}"));
    let rest = &obj[at + pat.len()..];
    let end = rest
        .char_indices()
        .scan(0usize, |depth, (i, ch)| {
            match ch {
                '{' => *depth += 1,
                '}' if *depth > 0 => *depth -= 1,
                ',' | '}' if *depth == 0 => return Some(Some(i)),
                _ => {}
            }
            Some(None)
        })
        .flatten()
        .next()
        .unwrap_or(rest.len());
    &rest[..end]
}

#[test]
fn bitspec_trace_names_every_registered_pass_with_nonzero_work() {
    let _g = serial();
    stages::clear();
    let w = traced_workload();
    let cfg = BuildConfig::bitspec();
    let c = build(&w, &cfg).expect("build");
    assert!(
        c.squeeze.narrowed > 0,
        "workload must exercise the squeezer"
    );

    let json = c.trace.to_json();
    let objs = objects(&json);
    assert_eq!(objs.len(), c.trace.passes.len());

    // Every registered pass appears, in registry order.
    let names: Vec<String> = objs
        .iter()
        .map(|o| field(o, "name").trim_matches('"').to_string())
        .collect();
    assert_eq!(names, pipeline::registered_passes(&cfg));

    // Transformation passes did measurable work: nonzero wall time and a
    // nonempty IR on at least one side of the delta.
    for name in [
        "front", "expand", "simplify", "dce", "profile", "squeeze", "isel", "regalloc", "emit",
    ] {
        let obj = objs
            .iter()
            .find(|o| field(o, "name") == format!("\"{name}\""))
            .unwrap_or_else(|| panic!("pass {name} missing"));
        let wall: u64 = field(obj, "wall_ns").parse().expect("wall_ns number");
        assert!(wall > 0, "{name} has zero wall time");
        let after = field(obj, "after");
        let insts: u64 = field(after, "insts").parse().expect("insts number");
        assert!(insts > 0, "{name} reports an empty post-pass IR");
    }

    // The squeezer narrowed: its delta shows slices appearing.
    let squeeze = objs
        .iter()
        .find(|o| field(o, "name") == "\"squeeze\"")
        .unwrap();
    let slices_before: u64 = field(field(squeeze, "before"), "slices").parse().unwrap();
    let slices_after: u64 = field(field(squeeze, "after"), "slices").parse().unwrap();
    assert!(
        slices_after > slices_before,
        "squeeze delta shows no new slices"
    );

    // Verification entries all passed, and middle-end passes carry
    // fingerprints (the fuzzer's divergence probe needs them).
    for obj in &objs {
        let name = field(obj, "name");
        if name.contains("verify") || name.contains("bitlint") {
            assert_eq!(field(obj, "verified"), "true", "{name} not verified");
        }
    }
    for name in ["front", "expand", "simplify", "dce", "squeeze", "emit"] {
        let obj = objs
            .iter()
            .find(|o| field(o, "name") == format!("\"{name}\""))
            .unwrap();
        assert_ne!(field(obj, "fingerprint"), "null", "{name} unfingerprinted");
    }
    stages::clear();
}

#[test]
fn warm_rebuild_replays_cached_stages_with_identical_fingerprints() {
    let _g = serial();
    let w = traced_workload();
    let cfg = BuildConfig::bitspec();
    let a = build(&w, &cfg).expect("cold build");
    let b = build(&w, &cfg).expect("warm build");
    assert!(
        b.stage_hits.profile,
        "second build must hit the stage cache"
    );
    // The warm trace still names every pass; cached entries keep the
    // fingerprints of the run that computed them.
    assert_eq!(a.trace.names(), b.trace.names());
    for name in ["front", "expand", "simplify", "dce"] {
        let ea = a.trace.get(name).unwrap();
        let eb = b.trace.get(name).unwrap();
        assert_eq!(ea.fingerprint, eb.fingerprint, "{name} fingerprint drift");
        assert!(eb.cached, "{name} should be served from the stage cache");
    }
    assert_eq!(
        pipeline::first_divergent_pass(&a.trace.passes, &b.trace.passes),
        None,
        "identical builds must not diverge"
    );
    stages::clear();
}
