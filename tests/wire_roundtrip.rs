//! Wire-codec determinism over real pipeline artifacts: encode →
//! decode → re-encode must be bit-identical, and two independent cold
//! builds of the same cell must serialize to the same bytes — that
//! byte-stability is what makes the content-addressed store's "both
//! racers write identical bytes" publish contract true.
//!
//! Takes the same file-wide lock as the other pipeline tests: the stage
//! caches it clears between builds are process-global.

use bitspec::fingerprint::Fnv;
use bitspec::memo::{self, Stats};
use bitspec::{build, simulate, stages, store, wire, BuildConfig, Manifest, Workload};
use std::path::{Path, PathBuf};
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
        wire::encode(&ra),
        wire::encode(&rb),
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
    // The profile and final-module stage payloads: data → bytes → data
    // must be lossless.
    let pbytes = wire::encode(&*c.profile);
    let p2: interp::Profile = wire::decode(&pbytes).unwrap();
    assert_eq!(p2, *c.profile);
    assert_eq!(wire::encode(&p2), pbytes);
    let mbytes = wire::encode(&*c.module);
    let m2: sir::Module = wire::decode(&mbytes).unwrap();
    assert_eq!(stages::content_key(&m2), stages::content_key(&c.module));
    assert_eq!(wire::encode(&m2), mbytes);
    // Truncation anywhere inside the payload must error, not panic or
    // silently succeed.
    for cut in [0, 1, pbytes.len() / 2, pbytes.len() - 1] {
        assert!(
            wire::decode::<interp::Profile>(&pbytes[..cut]).is_err(),
            "truncation at {cut} must be a decode error"
        );
    }
    // Trailing garbage is rejected too (full-consumption check).
    let mut extended = pbytes.clone();
    extended.push(0);
    assert!(wire::decode::<interp::Profile>(&extended).is_err());
}

/// A `module` payload (the name `"f"`) whose function count claims far
/// more functions than the payload holds.
fn huge_fn_count_module() -> Vec<u8> {
    let mut bytes = vec![1, b'f'];
    let mut n: u64 = 1 << 40;
    while n >= 0x80 {
        bytes.push((n as u8) | 0x80);
        n >>= 7;
    }
    bytes.push(n as u8);
    bytes
}

/// A varint of `u64::MAX`: as a leading length prefix it once overflowed
/// the decoder's bounds check (a panic instead of an error).
const HOSTILE: [u8; 10] = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];

/// The payload types the hostile-decode tests feed: the store's one
/// kind, a bench cell's `manifest`, and the codecs a whole cell is made of.
const KINDS: [&str; 5] = ["manifest", "cell", "module", "program", "profile"];

/// Decodes `bytes` as the payload type `kind` names and re-encodes it.
fn reencode(kind: &str, bytes: &[u8]) -> Result<Vec<u8>, wire::WireError> {
    fn re<T: wire::Wire>(bytes: &[u8]) -> Result<Vec<u8>, wire::WireError> {
        wire::decode::<T>(bytes).map(|v| wire::encode(&v))
    }
    match kind {
        "manifest" => re::<Manifest>(bytes),
        "cell" => wire::decode_cell(bytes).map(|(c, r)| wire::encode_cell(&c, &r)),
        "module" => re::<sir::Module>(bytes),
        "program" => re::<backend::Program>(bytes),
        "profile" => re::<interp::Profile>(bytes),
        _ => panic!("unexpected payload kind {kind}"),
    }
}

/// Length of the store's entry header (magic, schema, key, length,
/// checksum).
const HEADER_LEN: usize = 32;

/// Every published entry under a store root as `(kind, path)`, sorted.
fn entries(root: &Path) -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    for kind in std::fs::read_dir(root).unwrap().flatten() {
        let name = kind.file_name().to_string_lossy().into_owned();
        if name != "tmp" {
            for f in std::fs::read_dir(kind.path()).unwrap().flatten() {
                out.push((name.clone(), f.path()));
            }
        }
    }
    out.sort();
    out
}

/// Overwrites the entry at `path` with `payload`, keeping its key and
/// framing it with a valid length and checksum.
fn plant(path: &Path, payload: &[u8]) {
    let old = std::fs::read(path).unwrap();
    let mut sum = Fnv::new();
    sum.write_raw(payload);
    let mut framed = old[..16].to_vec();
    framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    framed.extend_from_slice(&sum.finish().to_le_bytes());
    framed.extend_from_slice(payload);
    std::fs::write(path, framed).unwrap();
}

/// The sum of one counter over every kind of a stats delta.
fn total(delta: &Stats, field: fn(memo::Counts) -> u64) -> u64 {
    delta.iter().map(|(_, c)| field(c)).sum()
}

/// A cold gated BITSPEC cell of `tag`'s workload against a fresh store in
/// `dir`, which then holds the cell's manifest and nothing else.
fn cold_cell_in_store(tag: &str, dir: &Path) -> bench::Cell {
    let _ = std::fs::remove_dir_all(dir);
    store::configure(Some(dir), None);
    stages::clear();
    bench::clear_cache();
    let cell = bench::run_cached(&workload(tag), &BuildConfig::bitspec());
    let kinds: Vec<_> = entries(dir).into_iter().map(|(k, _)| k).collect();
    assert_eq!(kinds, ["manifest"], "the store holds one manifest");
    cell
}

#[test]
fn huge_fn_length_prefix_errors_and_recomputes() {
    let _g = serial();
    let bad = huge_fn_count_module();
    assert!(
        wire::decode::<sir::Module>(&bad).is_err(),
        "an unbounded length prefix must be a decode error"
    );
    for kind in KINDS {
        assert!(
            reencode(kind, &HOSTILE).is_err(),
            "a u64::MAX length prefix must be a {kind} decode error"
        );
    }

    // A cell whose module is that payload: the cell encoding leads with
    // its module, so splice the hostile module in front of the rest.
    let w = workload("fncount");
    let c = build(&w, &BuildConfig::bitspec()).unwrap();
    let r = simulate(&c, &w).unwrap();
    let cell = wire::encode_cell(&c, &r);
    let module_len = wire::encode(&*c.module).len();
    assert!(wire::decode_cell(&cell).is_ok());
    let mut spliced = bad.clone();
    spliced.extend_from_slice(&cell[module_len..]);
    assert!(
        wire::decode_cell(&spliced).is_err(),
        "a cell with a 2^40-function module must be a decode error"
    );

    // The u64::MAX prefix, planted checksum-valid over a gated cell's
    // manifest: the memo counts it as corrupt, recomputes the cell and
    // rewrites the entry.
    let dir = std::env::temp_dir().join(format!("wire-hostile-{}", std::process::id()));
    let cold = cold_cell_in_store("hostile", &dir);
    let planted = entries(&dir);
    for (_, path) in &planted {
        plant(path, &HOSTILE);
    }
    stages::clear();
    bench::clear_cache();
    let before = memo::stats();
    let again = bench::run_cached(&workload("hostile"), &BuildConfig::bitspec());
    let moved = memo::stats().since(&before);
    let rewritten: Vec<_> = entries(&dir)
        .into_iter()
        .map(|(kind, path)| reencode(&kind, &std::fs::read(path).unwrap()[HEADER_LEN..]))
        .collect();
    store::configure(None, None);
    let _ = std::fs::remove_dir_all(&dir);
    stages::clear();
    bench::clear_cache();

    assert_eq!(planted.len(), 1, "one manifest");
    assert_eq!(moved.get("manifest").corrupt, 1, "the manifest is corrupt");
    assert_eq!(total(&moved, |c| c.corrupt), 1, "and nothing else");
    assert_eq!(
        total(&moved, |c| c.disk_hits),
        0,
        "nothing was served from disk"
    );
    assert_eq!(rewritten.len(), 1, "the manifest was rewritten");
    assert!(rewritten[0].is_ok(), "with a decodable payload");
    assert_eq!(
        backend::program_fingerprint(&again.0.program),
        backend::program_fingerprint(&cold.0.program)
    );
    assert_eq!(again.1.outputs, cold.1.outputs);
    assert_eq!(again.1.cycles, cold.1.cycles);
}

/// A splitmix64 stream: the mutation test's seeded randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One seeded mutation of `payload`: a bit flip, a byte set, a truncation,
/// a swap of two bytes, or a spliced `u64::MAX` varint.
fn mutate(payload: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut m = payload.to_vec();
    let i = rng.below(m.len());
    match rng.below(5) {
        0 => m[i] ^= 1 << rng.below(8),
        1 => m[i] = [0x00, 0x01, 0x7f, 0x80, 0xff, rng.next() as u8][rng.below(6)],
        2 => m.truncate(i),
        3 => m.swap(i, rng.below(payload.len())),
        _ => {
            let end = (i + rng.below(4)).min(m.len());
            m.splice(i..end, HOSTILE);
        }
    }
    m
}

/// Decoding is canonical and panic-free on hostile bytes: every mutated
/// payload of every kind either fails to decode or decodes to a value that
/// re-encodes to exactly the mutated bytes. The manifest comes off the
/// store; the module, program and profile are the cell's own.
#[test]
fn mutated_payloads_error_or_reencode_identically() {
    let _g = serial();
    let dir = std::env::temp_dir().join(format!("wire-mutate-{}", std::process::id()));
    let cell = cold_cell_in_store("mutate", &dir);
    let (_, manifest) = entries(&dir).remove(0);
    let payloads = [
        (
            "manifest",
            std::fs::read(manifest).unwrap()[HEADER_LEN..].to_vec(),
        ),
        ("module", wire::encode(&*cell.0.module)),
        ("program", wire::encode(&cell.0.program)),
        ("profile", wire::encode(&*cell.0.profile)),
    ];
    store::configure(None, None);
    let _ = std::fs::remove_dir_all(&dir);
    stages::clear();
    bench::clear_cache();

    let mut rng = Rng(0x5eed);
    for (kind, payload) in &payloads {
        assert_eq!(reencode(kind, payload).as_ref(), Ok(payload), "{kind}");
        let mut decoded = 0;
        for n in 0..3000 {
            let m = mutate(payload, &mut rng);
            let got = std::panic::catch_unwind(|| reencode(kind, &m))
                .unwrap_or_else(|_| panic!("{kind} mutation {n} panicked the decoder"));
            if let Ok(re) = got {
                assert!(
                    re == m,
                    "{kind} mutation {n} decoded but re-encodes differently"
                );
                decoded += 1;
            }
        }
        println!(
            "{kind}: {} bytes, {decoded} of 3000 mutations decode",
            payload.len()
        );
    }
}

/// Points one control-flow index of `p` past its last instruction: the
/// entry, the halt, a function entry, a branch target or a misspeculation
/// cover index (`what` picks which).
fn corrupt_control_flow(p: &mut backend::Program, what: usize) {
    let n = p.insts.len();
    match what {
        0 => p.entry = n,
        1 => p.halt = n + 1,
        2 => *p.func_entries.last_mut().unwrap() = n,
        3 => {
            let target = p
                .insts
                .iter_mut()
                .find_map(|i| match i {
                    isa::MInst::B { target }
                    | isa::MInst::Bc { target, .. }
                    | isa::MInst::Bl { target } => Some(target),
                    _ => None,
                })
                .expect("a branch");
            *target = n + 7;
        }
        _ => p.spec_targets.last_mut().expect("a cover entry").2 = n,
    }
}

/// A program whose branch target, entry, halt, function entry or cover
/// index lies outside the image is a decode error, alone or inside a cell,
/// not a simulator panic later.
#[test]
fn out_of_range_control_flow_is_a_decode_error() {
    let _g = serial();
    let w = workload("cfg");
    let cfg = BuildConfig {
        empirical_gate: false,
        ..BuildConfig::bitspec()
    };
    let c = build(&w, &cfg).unwrap();
    let r = simulate(&c, &w).unwrap();
    assert!(!c.program.spec_targets.is_empty(), "a speculative build");
    assert!(wire::decode_cell(&wire::encode_cell(&c, &r)).is_ok());
    for what in 0..5 {
        let mut bad = c.clone();
        corrupt_control_flow(&mut bad.program, what);
        assert!(
            wire::decode::<backend::Program>(&wire::encode(&bad.program)).is_err(),
            "corruption {what} must be a program decode error"
        );
        assert!(
            wire::decode_cell(&wire::encode_cell(&bad, &r)).is_err(),
            "corruption {what} must be a cell decode error"
        );
    }
}
