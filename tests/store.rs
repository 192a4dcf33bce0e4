//! Persistent artifact store integration: the disk tier under the real
//! build pipeline and bench cells, corruption robustness, publish races
//! and GC.
//!
//! The store (`bitspec::store`) is process-global once configured, and
//! the stage caches plus the memo counters (`bitspec::memo::stats`) are
//! process-global too, so every test takes a file-wide lock (same
//! pattern as `tests/stage_cache.rs`) and each test uses a tag-unique
//! source so no two tests can share cells. Tests that exercise
//! [`store::Store`] directly (GC, publish races) open private scratch
//! stores and do not need the global configuration, but still
//! serialize.

use bitspec::memo::{self, Source, Stats};
use bitspec::{build, stages, store, wire, BuildConfig, Manifest, Workload};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A workload with a `tag`-unique source so tests cannot share cells.
fn unique_workload(tag: &str) -> Workload {
    let src = format!(
        "global u8 seed[1]; // store {tag}
         void main() {{
            u32 s = 0;
            for (u32 i = 0; i < 50; i++) {{ s += (i * seed[0]) & 63; }}
            out(s);
         }}"
    );
    Workload::from_source(format!("store_{tag}"), src)
        .with_input("seed", vec![7])
        .with_train_input("seed", vec![4])
}

/// Scratch directory for one test; removed on drop along with the
/// global store configuration, so a panicking test cannot leave the
/// process pointed at a dead directory.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("bitspec-store-it-{}-{name}", std::process::id()));
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

/// The sum of one counter over every kind of a stats delta.
fn total(delta: &Stats, field: fn(memo::Counts) -> u64) -> u64 {
    delta.iter().map(|(_, c)| field(c)).sum()
}

/// Every published entry file under the store root (any kind).
fn entry_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(kinds) = fs::read_dir(root) else {
        return out;
    };
    for kind in kinds.flatten() {
        if !kind.path().is_dir() || kind.file_name() == "tmp" {
            continue;
        }
        for f in fs::read_dir(kind.path()).into_iter().flatten().flatten() {
            if f.path().extension().is_some_and(|e| e == "art") {
                out.push(f.path());
            }
        }
    }
    out.sort();
    out
}

/// Wipes the in-process caches (cells, simulations and stage artifacts),
/// leaving the configured store untouched.
fn wipe_memory() {
    bench::clear_cache();
    stages::clear();
}

#[test]
fn disk_tier_survives_memory_wipe() {
    let _g = serial();
    let scratch = Scratch::new("survive");
    store::configure(Some(scratch.path()), None);
    wipe_memory();
    let w = unique_workload("survive");
    let cfg = BuildConfig::bitspec();

    // A bare build is no bench cell: every stage stays in memory.
    let before = memo::stats();
    let bare = build(&w, &cfg).unwrap();
    let wrote = memo::stats().since(&before);
    assert_eq!(total(&wrote, |c| c.puts), 0, "a bare build writes nothing");
    assert_eq!(total(&wrote, |c| c.disk_misses), 0, "nor reads the store");
    assert!(entry_files(scratch.path()).is_empty(), "no entry on disk");

    // A cell writes its manifest, and nothing else.
    wipe_memory();
    let before = memo::stats();
    let (cold, src) = bench::run_cached_traced(&w, &cfg);
    let wrote = memo::stats().since(&before);
    assert_eq!(src, Source::Computed);
    assert_eq!(wrote.get("manifest").puts, 1, "the manifest is written");
    assert_eq!(total(&wrote, |c| c.puts), 1, "only the manifest");
    assert_eq!(
        store::entry_counts(&store::active().expect("store configured")),
        [("manifest".to_string(), 1)].into_iter().collect()
    );

    // Wipe memory: the manifest comes off disk and nothing else is looked
    // up; the full cell is then recomputed from the profile stage down.
    wipe_memory();
    let stats = memo::stats();
    let (warm, src) = bench::run_cached_traced(&w, &cfg);
    let moved = memo::stats().since(&stats);
    assert_eq!(src, Source::Disk, "the manifest must hit via disk");
    assert_eq!(moved.get("manifest").disk_hits, 1);
    assert_eq!(total(&moved, |c| c.hits), 1, "one lookup, the manifest");
    assert_eq!(total(&moved, |c| c.misses), 0, "nothing is computed");
    assert_eq!(warm.program_fp, cold.program_fp);
    assert_eq!(warm.sim.outputs, cold.sim.outputs);

    let stats = memo::stats();
    let cell = bench::run_cached(&w, &cfg);
    let moved = memo::stats().since(&stats);
    assert_eq!(moved.get("profile").misses, 1, "the cell is rebuilt");
    assert_eq!(total(&moved, |c| c.disk_misses), 0, "from memory tiers");
    assert_eq!(cell.0.profile, bare.profile);
    assert_eq!(
        backend::program_fingerprint(&cell.0.program),
        cold.program_fp,
        "a recomputed cell must be bit-identical to its manifest's"
    );
    assert_eq!(backend::program_fingerprint(&bare.program), cold.program_fp);
}

/// Eight threads ask for one disk-warm cell at once: its manifest is read
/// once, the cell is rebuilt once, and every thread gets that one cell.
#[test]
fn disk_warm_cell_is_recomputed_once_under_contention() {
    const THREADS: usize = 8;
    let _g = serial();
    let scratch = Scratch::new("contend");
    store::configure(Some(scratch.path()), None);
    wipe_memory();
    let w = unique_workload("contend");
    let cfg = BuildConfig::bitspec();
    let (cold, _) = bench::run_cached_traced(&w, &cfg);

    wipe_memory();
    let before = memo::stats();
    let barrier = Barrier::new(THREADS);
    let cells: Vec<bench::Cell> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    bench::run_cached(&w, &cfg)
                })
            })
            .collect();
        hs.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let moved = memo::stats().since(&before);
    assert_eq!(moved.get("manifest").disk_hits, 1, "one manifest read");
    assert_eq!(moved.get("manifest").misses, 0);
    assert_eq!(moved.get("profile").misses, 1, "the cell is rebuilt once");
    assert!(
        cells.iter().all(|c| Arc::ptr_eq(c, &cells[0])),
        "every caller shares the one rebuilt cell"
    );
    assert_eq!(
        backend::program_fingerprint(&cells[0].0.program),
        cold.program_fp
    );
}

/// Builds `tag`'s cell into the configured store and returns its manifest.
fn cold_manifest(tag: &str) -> Arc<Manifest> {
    bench::run_cached_traced(&unique_workload(tag), &BuildConfig::bitspec()).0
}

#[test]
fn truncated_entries_recompute_and_rewrite() {
    let _g = serial();
    let scratch = Scratch::new("truncate");
    store::configure(Some(scratch.path()), None);
    wipe_memory();
    let w = unique_workload("truncate");
    let cold = cold_manifest("truncate");

    // Plant truncation in every published entry (header cut short).
    let files = entry_files(scratch.path());
    assert_eq!(files.len(), 1, "the manifest is the one entry");
    for f in &files {
        let bytes = fs::read(f).unwrap();
        fs::write(f, &bytes[..bytes.len().min(11)]).unwrap();
    }

    wipe_memory();
    let before = memo::stats();
    let (again, src) = bench::run_cached_traced(&w, &BuildConfig::bitspec());
    let moved = memo::stats().since(&before);
    assert_eq!(
        moved.get("manifest").corrupt,
        1,
        "truncated entries must be classified corrupt"
    );
    assert_eq!(total(&moved, |c| c.corrupt), 1);
    assert_eq!(src, Source::Computed, "corrupt entry cannot hit");
    assert_eq!(again.program_fp, cold.program_fp, "recompute is identical");
    assert_eq!(wire::encode(&again.sim), wire::encode(&cold.sim));

    // The recompute republished: a third, memory-wiped lookup hits disk
    // without any further corruption.
    wipe_memory();
    let mid = memo::stats();
    let (_, src) = bench::run_cached_traced(&w, &BuildConfig::bitspec());
    let moved = memo::stats().since(&mid);
    assert_eq!(src, Source::Disk);
    assert_eq!(moved.get("manifest").disk_hits, 1);
    assert_eq!(
        total(&moved, |c| c.corrupt),
        0,
        "rewritten entries are clean"
    );
}

#[test]
fn garbage_and_schema_mismatch_detected() {
    let _g = serial();
    let scratch = Scratch::new("garbage");
    store::configure(Some(scratch.path()), None);
    wipe_memory();
    // Two workloads, so the store holds two manifests.
    let tags = ["garbage", "garbage-2"];
    let cold: Vec<_> = tags.iter().map(|t| cold_manifest(t)).collect();

    // Alternate two corruptions across the published entries: flip a
    // payload byte (checksum mismatch) and patch the schema version
    // field at offset 4 (mis-versioned entry).
    let files = entry_files(scratch.path());
    assert_eq!(files.len(), 2, "need entries to corrupt");
    for (i, f) in files.iter().enumerate() {
        let mut bytes = fs::read(f).unwrap();
        if i % 2 == 0 {
            let last = bytes.len() - 1;
            bytes[last] ^= 0xA5;
        } else {
            bytes[4] = bytes[4].wrapping_add(1);
        }
        fs::write(f, &bytes).unwrap();
    }

    wipe_memory();
    let before = memo::stats();
    for (tag, cold) in tags.iter().zip(&cold) {
        let (again, src) = bench::run_cached_traced(&unique_workload(tag), &BuildConfig::bitspec());
        assert_eq!(src, Source::Computed);
        assert_eq!(again.program_fp, cold.program_fp);
    }
    let moved = memo::stats().since(&before);
    assert_eq!(
        moved.get("manifest").corrupt,
        2,
        "both corruption styles must be caught"
    );
    assert_eq!(total(&moved, |c| c.corrupt), 2);
    // Corrupt entries were deleted and replaced by the recompute — none
    // of the planted bytes survive.
    for f in entry_files(scratch.path()) {
        let bytes = fs::read(&f).unwrap();
        assert_eq!(&bytes[0..4], b"BSST");
        assert_eq!(&bytes[4..8], &store::SCHEMA_VERSION.to_le_bytes());
    }
}

#[test]
fn gc_keeps_store_under_cap_and_serves_survivors() {
    let _g = serial();
    let scratch = Scratch::new("gc");
    // Direct store, private to this test: ~1 KiB entries, 4 KiB cap.
    let cap = 4096u64;
    let s = store::Store::open(scratch.path(), Some(cap)).unwrap();
    let payload = vec![0x5Au8; 1000];
    for key in 0..12u64 {
        s.put("cell", key, &payload);
        assert!(
            s.total_bytes() <= cap,
            "publish #{key} left the store over its cap"
        );
        // Distinct mtimes so the LRU-ish eviction order is well defined.
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // Three ~1 KiB entries fit under the 4 KiB cap: the newest three
    // (9, 10, 11) survive, everything older is gone (so GC evicted).
    assert!(s.get("cell", 11).is_some(), "newest entry must survive GC");
    assert!(s.get("cell", 0).is_none(), "oldest entry must be evicted");
    // Reads touch mtime (LRU-ish, not FIFO): touch the oldest survivor,
    // then overflow by one — the untouched middle entry is the coldest
    // and must be the one evicted.
    assert!(s.get("cell", 9).is_some());
    std::thread::sleep(std::time::Duration::from_millis(5));
    s.put("cell", 100, &payload);
    assert!(s.total_bytes() <= cap);
    assert!(s.get("cell", 9).is_some(), "recently-read entry evicted");
    assert!(s.get("cell", 10).is_none(), "coldest entry must be evicted");
}

#[test]
fn env_cap_knob_parses_like_the_flag() {
    let _g = serial();
    // `BITSPEC_STORE_MAX_BYTES` and `--store-cap` share one parser.
    assert_eq!(store::parse_cap("64m"), Some(64 << 20));
    let scratch = Scratch::new("capknob");
    let s = store::Store::open(scratch.path(), store::parse_cap("8k")).unwrap();
    assert_eq!(s.cap(), Some(8192));
}

#[test]
fn racing_publishers_same_key_both_succeed() {
    let _g = serial();
    let scratch = Scratch::new("race");
    let s = Arc::new(store::Store::open(scratch.path(), None).unwrap());
    // Content addressing: racers for one key write identical bytes.
    let payload: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();

    let writers: Vec<_> = (0..2)
        .map(|_| {
            let s = Arc::clone(&s);
            let p = payload.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    s.put("race", 42, &p);
                }
            })
        })
        .collect();
    // A reader hammers the same key while the writers race. Atomic
    // publish means every observation is either "absent" or the full
    // payload — never a torn prefix. It reads until both writers have
    // joined, and once more after that, so its last read follows a
    // finished publish (the `Release` store after the joins pairs with
    // the reader's `Acquire` load).
    let writers_done = Arc::new(AtomicBool::new(false));
    let reader = {
        let s = Arc::clone(&s);
        let p = payload.clone();
        let done = Arc::clone(&writers_done);
        std::thread::spawn(move || {
            let mut seen = 0u32;
            loop {
                let last = done.load(Ordering::Acquire);
                if let Some(got) = s.get("race", 42) {
                    assert_eq!(got, p, "reader observed a partial artifact");
                    seen += 1;
                }
                if last {
                    return seen;
                }
            }
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    writers_done.store(true, Ordering::Release);
    let seen = reader.join().unwrap();
    assert!(seen > 0, "reader never saw the published entry");
    assert_eq!(s.get("race", 42).as_deref(), Some(&payload[..]));
    // No tmp litter left behind.
    let tmp_left = fs::read_dir(scratch.path().join("tmp"))
        .unwrap()
        .flatten()
        .count();
    assert_eq!(tmp_left, 0, "publish must not leak temp files");
}
