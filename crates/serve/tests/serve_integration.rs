//! Serve-layer integration: the cell-level cache tiers under
//! [`bench::run_cached_traced`], corrupt manifests falling back to
//! compute, damaged module and program parts (served from the manifest,
//! recomputed by the harness path), and real `bitspecd` child processes
//! — concurrent children racing one store, and fresh-store children
//! agreeing bit-for-bit.
//!
//! The store configuration, cell cache and stage caches are all
//! process-global, so the in-process tests take a file-wide lock and
//! use tag-unique sources. The child-process tests are independent of
//! this process's globals but still serialize to keep wall-clock sane.

use bench::{clear_cache, run_cached, run_cached_traced};
use bitspec::memo::{self, Counts, Source, Stats};
use bitspec::{stages, store, wire, BuildConfig, Workload};
use serve::{serve_batch, suite_requests, Op, Request};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn unique_workload(tag: &str) -> Workload {
    let src = format!(
        "global u8 seed[2]; // serve {tag}
         void main() {{
            u32 s = 1;
            for (u32 i = 0; i < 40; i++) {{ s = (s + seed[i & 1]) * 3 & 255; }}
            out(s);
         }}"
    );
    Workload::from_source(format!("serve_{tag}"), src)
        .with_input("seed", vec![3, 9])
        .with_train_input("seed", vec![5, 2])
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("bitspec-serve-it-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        store::configure(None, None);
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Wipes the in-process caches (bench cell cache + stage caches) while
/// leaving any configured disk store untouched.
fn wipe_memory() {
    clear_cache();
    stages::clear();
}

#[test]
fn cell_cache_walks_memory_then_disk_then_compute() {
    let _g = serial();
    let scratch = Scratch::new("tiers");
    store::configure(Some(scratch.path()), None);
    wipe_memory();
    let w = unique_workload("tiers");
    let cfg = BuildConfig::bitspec();

    let (cold, src) = run_cached_traced(&w, &cfg);
    assert_eq!(src, Source::Computed);
    let (mem, src) = run_cached_traced(&w, &cfg);
    assert_eq!(src, Source::Memory);
    assert!(std::sync::Arc::ptr_eq(&cold, &mem), "memory tier shares");
    let cell = run_cached(&w, &cfg);
    assert_eq!(
        cold.parts.program,
        backend::program_fingerprint(&cell.0.program)
    );

    wipe_memory();
    let (disk, src) = run_cached_traced(&w, &cfg);
    assert_eq!(src, Source::Disk, "fresh memory must fall to disk");
    assert_eq!(disk.sim.outputs, cold.sim.outputs);
    assert_eq!(disk.sim.cycles, cold.sim.cycles);
    assert_eq!(disk.parts, cold.parts);
    let rebuilt = run_cached(&w, &cfg);
    assert_eq!(
        wire::encode_cell(&rebuilt.0, &rebuilt.1),
        wire::encode_cell(&cell.0, &cell.1),
        "the cell reassembled from its parts is the computed cell"
    );
    // And the disk hit re-seeded memory.
    let (_, src) = run_cached_traced(&w, &cfg);
    assert_eq!(src, Source::Memory);
}

/// The sum of one counter over every kind of a stats delta.
fn total(delta: &Stats, field: fn(Counts) -> u64) -> u64 {
    delta.iter().map(|(_, c)| field(c)).sum()
}

/// Flips the last payload byte of every `kind` entry under `root`;
/// returns how many it stomped.
fn stomp(root: &Path, kind: &str) -> usize {
    let mut stomped = 0;
    for f in fs::read_dir(root.join(kind)).unwrap().flatten() {
        let mut bytes = fs::read(f.path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(f.path(), &bytes).unwrap();
        stomped += 1;
    }
    stomped
}

#[test]
fn corrupt_cell_entry_falls_back_to_compute_and_rewrites() {
    let _g = serial();
    let scratch = Scratch::new("corrupt");
    store::configure(Some(scratch.path()), None);
    wipe_memory();
    let w = unique_workload("corrupt");
    let cfg = BuildConfig::bitspec();
    let (cold, _) = run_cached_traced(&w, &cfg);

    assert_eq!(stomp(scratch.path(), "manifest"), 1);

    wipe_memory();
    let before = memo::stats();
    let (again, src) = run_cached_traced(&w, &cfg);
    let moved = memo::stats().since(&before);
    assert_eq!(src, Source::Computed, "corrupt entry must not serve");
    assert_eq!(moved.get("manifest").corrupt, 1);
    assert_eq!(total(&moved, |c| c.corrupt), 1, "only the manifest");
    assert_eq!(again.sim.outputs, cold.sim.outputs);

    // The recompute republished a clean entry.
    wipe_memory();
    let (_, src) = run_cached_traced(&w, &cfg);
    assert_eq!(src, Source::Disk, "fallback must rewrite the entry");
}

#[test]
fn undecodable_cell_entry_counts_as_corrupt_and_rewrites() {
    let _g = serial();
    let scratch = Scratch::new("undecodable");
    store::configure(Some(scratch.path()), None);
    wipe_memory();
    let w = unique_workload("undecodable");
    let cfg = BuildConfig::bitspec();
    // A framed, checksum-valid entry whose payload is not a manifest.
    let key = bitspec::fingerprint::cell_key(&w, &cfg);
    store::active()
        .expect("store configured")
        .put("manifest", key, b"garbage");

    let before = memo::stats();
    let (_, src) = run_cached_traced(&w, &cfg);
    let moved = memo::stats().since(&before);
    assert_eq!(src, Source::Computed, "garbage must not serve");
    assert_eq!(
        moved.get("manifest").corrupt,
        1,
        "decode failure is corruption"
    );
    assert_eq!(total(&moved, |c| c.corrupt), 1, "only the manifest");
    assert_eq!(
        total(&moved, |c| c.disk_hits),
        0,
        "an undecodable read is not a hit"
    );

    // The recompute replaced the garbage with a clean entry.
    wipe_memory();
    let after = memo::stats();
    let (_, src) = run_cached_traced(&w, &cfg);
    assert_eq!(src, Source::Disk, "fallback must rewrite the entry");
    assert_eq!(total(&memo::stats().since(&after), |c| c.corrupt), 0);
}

/// One `sim` request for `w` under `cfg`.
fn request(w: &Workload, cfg: &BuildConfig) -> Vec<Request> {
    vec![Request {
        id: 0,
        op: Op::Sim,
        workload: w.clone(),
        cfg: cfg.clone(),
        label: "bitspec".to_string(),
    }]
}

/// `serve_batch`'s result lines for `reqs`, in request order.
fn serve_lines(reqs: &[Request]) -> Vec<String> {
    let lines = Mutex::new(Vec::new());
    serve_batch(reqs, 1, true, &|l| {
        lines.lock().unwrap().push(l.to_string())
    });
    lines.into_inner().unwrap()
}

/// Damages the one `kind` part of a cold cell with `damage`, then checks
/// both paths: `serve_batch` still answers from the manifest, off disk,
/// with the cold line; `run_cached` counts the part as corrupt, recomputes
/// the cell and rewrites the part, so the next fresh-memory `run_cached`
/// reassembles the computed cell from disk.
fn damaged_part_is_recomputed(tag: &str, kind: &str, damage: fn(&Path)) {
    let _g = serial();
    let scratch = Scratch::new(tag);
    store::configure(Some(scratch.path()), None);
    wipe_memory();
    let w = unique_workload(tag);
    let cfg = BuildConfig::bitspec();
    let reqs = request(&w, &cfg);
    let cold_line = serve_lines(&reqs).remove(0);
    let cold = run_cached(&w, &cfg);
    let cold_bytes = wire::encode_cell(&cold.0, &cold.1);
    let part_dir = scratch.path().join(kind);
    assert_eq!(
        fs::read_dir(&part_dir).unwrap().count(),
        1,
        "one {kind} part"
    );
    damage(&part_dir);

    wipe_memory();
    let warm_line = serve_lines(&reqs).remove(0);
    assert!(warm_line.contains("\"source\": \"disk\""), "{warm_line}");
    assert_eq!(
        warm_line.replace("\"source\": \"disk\"", "\"source\": \"computed\""),
        cold_line
    );

    let before = memo::stats();
    let again = run_cached(&w, &cfg);
    let moved = memo::stats().since(&before);
    assert_eq!(moved.get(kind).corrupt, 1, "the {kind} part");
    assert_eq!(total(&moved, |c| c.corrupt), 1, "only the {kind} part");
    assert_eq!(
        backend::program_fingerprint(&again.0.program),
        backend::program_fingerprint(&cold.0.program)
    );
    assert_eq!(again.1.outputs, cold.1.outputs);
    assert_eq!(fs::read_dir(&part_dir).unwrap().count(), 1, "rewritten");

    wipe_memory();
    let before = memo::stats();
    let (_, src) = run_cached_traced(&w, &cfg);
    assert_eq!(src, Source::Disk);
    let rebuilt = run_cached(&w, &cfg);
    let moved = memo::stats().since(&before);
    assert_eq!(total(&moved, |c| c.corrupt), 0, "the part is whole");
    assert_eq!(moved.get(kind).disk_hits, 1);
    assert_eq!(wire::encode_cell(&rebuilt.0, &rebuilt.1), cold_bytes);
}

#[test]
fn corrupt_program_part_is_recomputed_and_rewritten() {
    damaged_part_is_recomputed("program-part", "program", |dir| {
        assert_eq!(stomp(dir.parent().unwrap(), "program"), 1);
    });
}

#[test]
fn deleted_module_part_is_recomputed_and_rewritten() {
    damaged_part_is_recomputed("module-part", "module", |dir| {
        for f in fs::read_dir(dir).unwrap().flatten() {
            fs::remove_file(f.path()).unwrap();
        }
    });
}

/// A cold serve of the full suite stores exactly its cells (manifests
/// and their parts), and a disk-warm serve reads manifests and nothing
/// else: no module, program or stage artifact is looked up. A re-serve of the
/// suite twice over is then all memory hits, one cell per duplicate pair.
#[test]
fn disk_warm_suite_serve_reads_only_manifests() {
    let _g = serial();
    let scratch = Scratch::new("suite-parts");
    store::configure(Some(scratch.path()), None);
    wipe_memory();
    let reqs = suite_requests(0);
    let before = memo::stats();
    let cold = serve_batch(&reqs, 2, true, &|_| {});
    let wrote = memo::stats().since(&before);
    assert_eq!(cold.computed, reqs.len());
    // The store holds the cells and nothing else: one manifest per cell
    // plus the distinct module, program and profile parts they name.
    let stored = store::entry_counts(&store::active().expect("store configured"));
    let cell_kinds = [
        ("manifest", 112),
        ("module", 58),
        ("program", 66),
        ("profile", 14),
    ];
    assert_eq!(
        stored,
        HashMap::from(cell_kinds.map(|(k, n)| (k.to_string(), n)))
    );
    // Each entry was written once, and counted under its kind.
    for (kind, n) in cell_kinds {
        assert_eq!(wrote.get(kind).puts, n as u64, "{kind} writes");
    }
    let entries: usize = cell_kinds.iter().map(|(_, n)| n).sum();
    assert_eq!(
        total(&wrote, |c| c.puts),
        entries as u64,
        "no other kind writes"
    );

    wipe_memory();
    let before = memo::stats();
    let warm = serve_batch(&reqs, 2, true, &|_| {});
    let delta = memo::stats().since(&before);
    assert_eq!(warm.disk_hits, reqs.len());
    assert_eq!(warm.suite_fp, cold.suite_fp);
    for (kind, counts) in delta.iter() {
        if kind == "manifest" {
            assert_eq!(counts.disk_hits, reqs.len() as u64);
        } else {
            assert_eq!(counts, Counts::default(), "{kind} was looked up");
        }
    }

    let mut doubled = suite_requests(0);
    doubled.extend(suite_requests(doubled.len()));
    let memory = serve_batch(&doubled, 2, false, &|_| {});
    assert_eq!(memory.cells, reqs.len());
    assert_eq!(memory.deduped, reqs.len());
    assert_eq!(memory.memory_hits, reqs.len());
    assert_eq!(memory.suite_fp, cold.suite_fp);
}

/// A small build+sim request batch over cheap MiBench workloads —
/// child processes run debug binaries, so keep the matrix tiny.
const BATCH: &str = "\
sim crc32 config=bitspec
sim crc32 config=baseline
sim basicmath config=bitspec
sim basicmath config=nospec gate=off
";

fn run_child(store_dir: &Path, batch_file: &Path) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bitspecd"))
        .arg("--store")
        .arg(store_dir)
        .arg("--ordered")
        .arg("--file")
        .arg(batch_file)
        .output()
        .expect("spawn bitspecd");
    assert!(
        out.status.success(),
        "bitspecd failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let summary = stdout
        .lines()
        .rev()
        .find(|l| l.contains("\"summary\""))
        .expect("summary line")
        .to_string();
    (stdout, summary)
}

fn suite_fp_of(summary: &str) -> &str {
    let key = "\"suite_fp\": \"";
    let start = summary.find(key).expect("suite_fp field") + key.len();
    &summary[start..start + 16]
}

/// Strips fields that legitimately differ between runs (cache
/// provenance and wall-clock) so the rest must match byte-for-byte.
fn normalize(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| !l.contains("\"summary\""))
        .map(|l| {
            let mut s = l.to_string();
            for tier in ["memory", "disk", "computed"] {
                s = s.replace(&format!("\"source\": \"{tier}\", "), "\"source\": \"-\", ");
            }
            s
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn concurrent_children_race_one_store_and_agree() {
    let _g = serial();
    let scratch = Scratch::new("children-race");
    let store_dir = scratch.path().join("store");
    let batch = scratch.path().join("batch.txt");
    fs::create_dir_all(scratch.path()).unwrap();
    fs::write(&batch, BATCH).unwrap();

    // Two processes race cold against one store: both publish every
    // cell, both must succeed and agree on the suite fingerprint.
    let a = {
        let (d, b) = (store_dir.clone(), batch.clone());
        std::thread::spawn(move || run_child(&d, &b))
    };
    let b = run_child(&store_dir, &batch);
    let a = a.join().unwrap();
    assert_eq!(suite_fp_of(&a.1), suite_fp_of(&b.1));
    assert_eq!(normalize(&a.0), normalize(&b.0));

    // A third, cold process re-sweeps the racers' store purely from
    // disk — no compute — and still matches.
    let c = run_child(&store_dir, &batch);
    assert!(
        c.1.contains("\"computed\": 0"),
        "warm child recomputed: {}",
        c.1
    );
    assert_eq!(suite_fp_of(&c.1), suite_fp_of(&a.1));
    assert_eq!(normalize(&c.0), normalize(&a.0));
}

#[test]
fn fresh_store_children_are_bit_identical() {
    let _g = serial();
    let scratch = Scratch::new("children-fresh");
    let batch = scratch.path().join("batch.txt");
    fs::create_dir_all(scratch.path()).unwrap();
    fs::write(&batch, BATCH).unwrap();

    // Two children with separate empty stores: everything computed in
    // both, and the artifacts (fingerprints, outputs, cycles, energy —
    // the full result stream) must be bit-identical across processes.
    let a = run_child(&scratch.path().join("store-a"), &batch);
    let b = run_child(&scratch.path().join("store-b"), &batch);
    assert!(a.1.contains("\"disk_hits\": 0"));
    assert!(b.1.contains("\"disk_hits\": 0"));
    assert_eq!(suite_fp_of(&a.1), suite_fp_of(&b.1));
    assert_eq!(a.0.replace(&a.1, ""), b.0.replace(&b.1, ""));
}
