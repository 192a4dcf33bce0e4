//! Serve-layer integration: the cell-level cache tiers under
//! [`bench::run_cached_traced`], corrupt manifests falling back to
//! compute, and real `bitspecd` child processes — concurrent children
//! racing one store, fresh-store children agreeing bit-for-bit, and bad
//! arguments rejected with the usage exit code.
//!
//! The store configuration, cell cache and stage caches are all
//! process-global, so the in-process tests take a file-wide lock and
//! use tag-unique sources. The child-process tests are independent of
//! this process's globals but still serialize to keep wall-clock sane.

use bench::{clear_cache, run_cached, run_cached_traced};
use bitspec::memo::{self, Counts, Source, Stats};
use bitspec::{stages, store, wire, BuildConfig, Workload};
use serve::{serve_batch, suite_requests};
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
        cold.program_fp,
        backend::program_fingerprint(&cell.0.program)
    );

    wipe_memory();
    let (disk, src) = run_cached_traced(&w, &cfg);
    assert_eq!(src, Source::Disk, "fresh memory must fall to disk");
    assert_eq!(disk.sim.outputs, cold.sim.outputs);
    assert_eq!(disk.sim.cycles, cold.sim.cycles);
    assert_eq!(disk.program_fp, cold.program_fp);
    let rebuilt = run_cached(&w, &cfg);
    assert_eq!(
        backend::program_fingerprint(&rebuilt.0.program),
        cold.program_fp,
        "the cell recomputed for a disk manifest is the computed cell"
    );
    assert_eq!(wire::encode(&rebuilt.1), wire::encode(&cell.1));
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

/// A cold serve of the full suite stores exactly its cells' manifests,
/// and a disk-warm serve reads manifests and nothing else: no stage
/// artifact is looked up. A re-serve of the suite twice over is then all
/// memory hits, one cell per duplicate pair.
#[test]
fn disk_warm_suite_serve_reads_only_manifests() {
    let _g = serial();
    let scratch = Scratch::new("suite-manifests");
    store::configure(Some(scratch.path()), None);
    wipe_memory();
    let reqs = suite_requests(0);
    let before = memo::stats();
    let cold = serve_batch(&reqs, 2, true, &|_| {});
    let wrote = memo::stats().since(&before);
    assert_eq!(cold.computed, reqs.len());
    // The store holds one manifest per cell and nothing else, each
    // written once.
    let stored = store::entry_counts(&store::active().expect("store configured"));
    assert_eq!(stored, HashMap::from([("manifest".to_string(), 112)]));
    assert_eq!(wrote.get("manifest").puts, 112, "manifest writes");
    assert_eq!(total(&wrote, |c| c.puts), 112, "no other kind writes");

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

/// `bitspecd` with `args` and an empty stdin batch; returns its exit code.
fn bitspecd_status(args: &[&std::ffi::OsStr]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_bitspecd"))
        .args(args)
        .stdin(std::process::Stdio::null())
        .output()
        .expect("spawn bitspecd")
        .status
        .code()
}

#[test]
fn bad_jobs_and_unopenable_store_exit_with_usage() {
    let _g = serial();
    let scratch = Scratch::new("bad-args");
    fs::create_dir_all(scratch.path()).unwrap();
    let os = |s: &'static str| std::ffi::OsStr::new(s);
    for bad in [
        &[os("-j"), os("0")][..],
        &[os("-j0")],
        &[os("-j"), os("abc")],
        &[os("-jabc")],
        &[os("--jobs"), os("0")],
        &[os("-j")],
    ] {
        assert_eq!(bitspecd_status(bad), Some(2), "{bad:?} must be refused");
    }
    // A store directory that is a regular file cannot be opened.
    let file = scratch.path().join("not-a-dir");
    fs::write(&file, b"x").unwrap();
    assert_eq!(
        bitspecd_status(&[os("--store"), file.as_os_str()]),
        Some(2),
        "an unopenable store must be refused"
    );

    // A good worker count still serves.
    let batch = scratch.path().join("batch.txt");
    fs::write(&batch, "sim crc32 config=baseline\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bitspecd"))
        .args(["-j", "2", "--store"])
        .arg(scratch.path().join("store"))
        .arg("--file")
        .arg(&batch)
        .output()
        .expect("spawn bitspecd");
    assert!(out.status.success(), "-j 2 must serve");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(stdout.contains("\"workload\": \"crc32\""), "{stdout}");
    assert!(stdout.contains("\"computed\": 1"), "{stdout}");
}
