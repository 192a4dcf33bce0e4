//! Persistent content-addressed artifact store.
//!
//! The in-memory stage cache ([`crate::stages`]) dies with the process;
//! this store persists bench cells on disk so re-sweeps in a *new*
//! process serve disk hits instead of recomputing. Lookup order for a
//! stored kind is memory → disk → compute.
//!
//! **Keys.** Entries are addressed by the existing chained FNV-1a stage
//! fingerprints ([`crate::fingerprint`]), further mixed with a store
//! schema version, the crate version and the entry kind
//! ([`versioned_key`]). Bumping [`SCHEMA_VERSION`] (or releasing a new
//! crate version) changes every key, so stale artifacts self-invalidate:
//! they simply stop being addressed and age out via GC.
//!
//! **Layout.** One kind persists: a bench cell's `manifest` (its sim
//! result, the build's metadata and the program's fingerprint), the only
//! thing a warm serve reads. A later process that needs a whole cell
//! recomputes it. Every stage memo stays in memory, because no later
//! process reads a stage artifact back and every entry costs a file
//! creation on the write path. Each entry is `root/<kind>/<16-hex-key>.art`, one file per artifact,
//! framed by a fixed header: magic `BSST`, schema version, the full
//! 64-bit key, the payload length and an FNV-1a payload checksum (all
//! little-endian). Any mismatch on read — truncation, garbage, a key
//! collision across versions — classifies the entry as corrupt: it is
//! deleted and the caller recomputes and rewrites.
//!
//! **Atomicity.** Writers publish via temp-file + `rename` within the
//! store filesystem (`root/tmp/` keeps the temp on the same mount).
//! `rename` is atomic on POSIX, so readers observe either the old state
//! or the complete new entry, never a partial write; two racers both
//! succeed and the last rename wins with identical bytes.
//!
//! **GC.** `BITSPEC_STORE_MAX_BYTES` (or `--store-cap` in the harnesses)
//! caps the store; when a publish pushes the total over the cap, entries
//! are evicted oldest-first by modification time. Reads touch the mtime
//! (best-effort), which makes eviction LRU-ish rather than FIFO.
//!
//! **Counters.** The store only reads and writes files. The memo that
//! owns a kind ([`crate::memo`]) classifies each read as a hit, a miss
//! or corruption and counts it under that kind.
//!
//! The store is **off by default** — it activates when
//! `BITSPEC_STORE_DIR` is set or a harness calls [`configure`].

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use crate::fingerprint::Fnv;

/// On-disk format version. Bump on any incompatible change to the entry
/// framing *or* to the wire codec ([`crate::wire`]); every key changes
/// and old entries become unreachable (then unreferenced, then GC'd).
pub const SCHEMA_VERSION: u32 = 3;

/// Entry file magic.
const MAGIC: [u8; 4] = *b"BSST";

/// Header: magic + schema + key + payload length + payload checksum.
const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// Environment variable naming the store directory (store disabled when
/// absent and no harness configured one explicitly).
pub const ENV_DIR: &str = "BITSPEC_STORE_DIR";

/// Environment variable capping the store size in bytes; accepts plain
/// byte counts and `k`/`m`/`g` suffixes (see [`parse_cap`]).
pub const ENV_MAX_BYTES: &str = "BITSPEC_STORE_MAX_BYTES";

/// Parses a size string: a plain byte count, or with a `k`/`m`/`g`
/// (KiB/MiB/GiB) suffix, case-insensitive. Returns `None` on anything
/// else (including overflow).
pub fn parse_cap(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    let (digits, mult) = match s.as_bytes()[s.len() - 1].to_ascii_lowercase() {
        b'k' => (&s[..s.len() - 1], 1u64 << 10),
        b'm' => (&s[..s.len() - 1], 1u64 << 20),
        b'g' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    let n: u64 = digits.trim().parse().ok()?;
    n.checked_mul(mult)
}

/// Mixes a raw stage fingerprint into the final on-disk key: schema
/// version, crate version and entry kind all feed in, so artifacts from
/// an older codec or a different stage can never satisfy a lookup.
pub fn versioned_key(kind: &str, base: u64) -> u64 {
    let mut h = Fnv::new();
    h.str("store");
    h.u32(SCHEMA_VERSION);
    h.str(env!("CARGO_PKG_VERSION"));
    h.str(kind);
    h.u64(base);
    h.finish()
}

/// A content-addressed artifact store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    cap: Option<u64>,
    /// Serializes GC passes (publishes from many threads may race the
    /// size check; one eviction walk at a time is enough).
    gc_lock: Mutex<()>,
    tmp_seq: AtomicU64,
}

/// What [`Store::read`] found under a key.
pub(crate) enum Read {
    /// A whole entry's payload.
    Payload(Vec<u8>),
    /// No entry.
    Absent,
    /// A damaged entry, now deleted.
    Damaged,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root` with an
    /// optional size cap in bytes.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>, cap: Option<u64>) -> std::io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(root.join("tmp"))?;
        Ok(Store {
            root,
            cap,
            gc_lock: Mutex::new(()),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The configured size cap, if any.
    pub fn cap(&self) -> Option<u64> {
        self.cap
    }

    fn entry_path(&self, kind: &str, key: u64) -> PathBuf {
        self.root
            .join(kind)
            .join(format!("{:016x}.art", versioned_key(kind, key)))
    }

    /// The payload stored under `(kind, key)`, or `None` when the entry
    /// is absent or damaged ([`Store::read`]).
    pub fn get(&self, kind: &str, key: u64) -> Option<Vec<u8>> {
        match self.read(kind, key) {
            Read::Payload(p) => Some(p),
            Read::Absent | Read::Damaged => None,
        }
    }

    /// Reads the entry under `(kind, key)`, validating the header and
    /// payload checksum. A damaged entry (truncated, garbage or
    /// mis-versioned) is deleted, so the caller's recompute rewrites it;
    /// a whole one has its mtime touched for GC.
    pub(crate) fn read(&self, kind: &str, key: u64) -> Read {
        let path = self.entry_path(kind, key);
        let Ok(data) = fs::read(&path) else {
            return Read::Absent;
        };
        match validate_entry(&data, versioned_key(kind, key)) {
            Some(payload) => {
                touch(&path);
                Read::Payload(payload)
            }
            None => {
                let _ = fs::remove_file(&path);
                Read::Damaged
            }
        }
    }

    /// Deletes the entry under `(kind, key)`, if any (best-effort): its
    /// frame was whole but its payload did not decode.
    pub(crate) fn remove(&self, kind: &str, key: u64) {
        let _ = fs::remove_file(self.entry_path(kind, key));
    }

    /// Publishes `payload` under `(kind, key)` atomically: the entry is
    /// framed and checksummed, written to `root/tmp/`, then renamed into
    /// place. Concurrent publishers of the same key both succeed (the
    /// bytes are identical by construction — content addressing).
    /// Failures are swallowed: the store is an accelerator, not a
    /// correctness dependency, so a full disk degrades to compute.
    pub fn put(&self, kind: &str, key: u64, payload: &[u8]) {
        let vkey = versioned_key(kind, key);
        let mut framed = Vec::with_capacity(HEADER_LEN + payload.len());
        framed.extend_from_slice(&MAGIC);
        framed.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        framed.extend_from_slice(&vkey.to_le_bytes());
        framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        framed.extend_from_slice(&checksum(payload).to_le_bytes());
        framed.extend_from_slice(payload);

        let final_path = self.entry_path(kind, key);
        let Some(dir) = final_path.parent() else {
            return;
        };
        if fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = self.root.join("tmp").join(format!(
            "{:08x}-{:x}.tmp",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        if fs::write(&tmp, &framed).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        if fs::rename(&tmp, &final_path).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        if let Some(cap) = self.cap {
            self.gc(cap);
        }
    }

    /// Total bytes of published entries (temp files excluded).
    pub fn total_bytes(&self) -> u64 {
        self.walk_entries().into_iter().map(|(_, _, len)| len).sum()
    }

    /// Evicts oldest-first (by mtime; reads touch it, so LRU-ish) until
    /// the store is at or under `cap` bytes.
    pub fn gc(&self, cap: u64) {
        let _guard = self.gc_lock.lock().expect("gc lock");
        let mut entries = self.walk_entries();
        let mut total: u64 = entries.iter().map(|(_, _, len)| len).sum();
        if total <= cap {
            return;
        }
        // Oldest first; path is the tiebreaker so eviction order is
        // deterministic when a batch publish lands within one timestamp
        // granule.
        entries.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        for (path, _, len) in entries {
            if total <= cap {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
            }
        }
    }

    /// All published entries as `(path, mtime, len)`.
    fn walk_entries(&self) -> Vec<(PathBuf, SystemTime, u64)> {
        let mut out = Vec::new();
        let Ok(kinds) = fs::read_dir(&self.root) else {
            return out;
        };
        for kind in kinds.flatten() {
            let kpath = kind.path();
            if !kpath.is_dir() || kind.file_name() == "tmp" {
                continue;
            }
            let Ok(files) = fs::read_dir(&kpath) else {
                continue;
            };
            for f in files.flatten() {
                let path = f.path();
                if path.extension().is_none_or(|e| e != "art") {
                    continue;
                }
                if let Ok(meta) = f.metadata() {
                    let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                    out.push((path, mtime, meta.len()));
                }
            }
        }
        out
    }
}

/// FNV-1a over the payload (the header carries it; [`validate_entry`]
/// recomputes and compares).
fn checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write_raw(payload);
    h.finish()
}

/// Validates a framed entry against the expected versioned key; returns
/// the payload on success, `None` on any mismatch.
fn validate_entry(data: &[u8], expect_key: u64) -> Option<Vec<u8>> {
    if data.len() < HEADER_LEN || data[0..4] != MAGIC {
        return None;
    }
    let schema = u32::from_le_bytes(data[4..8].try_into().ok()?);
    let key = u64::from_le_bytes(data[8..16].try_into().ok()?);
    let len = u64::from_le_bytes(data[16..24].try_into().ok()?);
    let sum = u64::from_le_bytes(data[24..32].try_into().ok()?);
    if schema != SCHEMA_VERSION || key != expect_key {
        return None;
    }
    let payload = &data[HEADER_LEN..];
    if payload.len() as u64 != len || checksum(payload) != sum {
        return None;
    }
    Some(payload.to_vec())
}

/// Best-effort LRU touch: bump the entry's mtime to now so GC evicts
/// cold entries before recently-served ones. Failure is fine — eviction
/// order degrades to publish order.
fn touch(path: &Path) {
    if let Ok(f) = fs::OpenOptions::new().append(true).open(path) {
        let _ = f.set_modified(SystemTime::now());
    }
}

/// The process-wide store: `None` until [`configure`] or the first
/// [`active`] settles it, then `Some(None)` while the disk tier is off.
static ACTIVE: Mutex<Option<Option<Arc<Store>>>> = Mutex::new(None);

/// Explicitly configures (or with `None` disables) the process-wide
/// store, overriding the environment. Harnesses call this from
/// `--store`/`--store-cap` flags; tests use it to point the pipeline at
/// a scratch directory. A directory that cannot be opened leaves the
/// store off; a caller that must report that opens it with
/// [`Store::open`] first.
pub fn configure(dir: Option<&Path>, cap: Option<u64>) {
    let store = dir.and_then(|d| Store::open(d, cap).ok()).map(Arc::new);
    *ACTIVE.lock().expect("store slot") = Some(store);
}

/// The process-wide store, if one is active. Lazily initialized from
/// `BITSPEC_STORE_DIR` / `BITSPEC_STORE_MAX_BYTES` on first use unless
/// [`configure`] ran first; `None` means the disk layer is off and the
/// pipeline behaves exactly as before.
pub fn active() -> Option<Arc<Store>> {
    ACTIVE
        .lock()
        .expect("store slot")
        .get_or_insert_with(|| {
            let dir = std::env::var(ENV_DIR).ok().filter(|d| !d.is_empty())?;
            let cap = std::env::var(ENV_MAX_BYTES)
                .ok()
                .and_then(|s| parse_cap(&s));
            Store::open(dir, cap).ok().map(Arc::new)
        })
        .clone()
}

/// Debug/robustness helper used by tests: summarize entry counts per
/// kind, e.g. `{"manifest": 8}`.
pub fn entry_counts(store: &Store) -> HashMap<String, usize> {
    let mut out: HashMap<String, usize> = HashMap::new();
    for (path, _, _) in store.walk_entries() {
        if let Some(kind) = path
            .parent()
            .and_then(|p| p.file_name())
            .and_then(|n| n.to_str())
        {
            *out.entry(kind.to_string()).or_default() += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bitspec-store-unit-{}-{}",
            std::process::id(),
            name
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn parse_cap_suffixes() {
        assert_eq!(parse_cap("1024"), Some(1024));
        assert_eq!(parse_cap("4k"), Some(4096));
        assert_eq!(parse_cap("4K"), Some(4096));
        assert_eq!(parse_cap("2m"), Some(2 << 20));
        assert_eq!(parse_cap("1g"), Some(1 << 30));
        assert_eq!(parse_cap(" 8 k "), Some(8192));
        assert_eq!(parse_cap(""), None);
        assert_eq!(parse_cap("k"), None);
        assert_eq!(parse_cap("x12"), None);
        assert_eq!(parse_cap("999999999999g"), None, "overflow must not wrap");
    }

    #[test]
    fn versioned_keys_separate_kinds() {
        let a = versioned_key("manifest", 42);
        let b = versioned_key("cell", 42);
        assert_ne!(a, b);
        // And the same kind+key is stable.
        assert_eq!(a, versioned_key("manifest", 42));
    }

    #[test]
    fn put_get_roundtrip() {
        let dir = scratch("roundtrip");
        let s = Store::open(&dir, None).unwrap();
        assert_eq!(s.get("k", 7), None);
        s.put("k", 7, b"payload bytes");
        assert_eq!(s.get("k", 7).as_deref(), Some(&b"payload bytes"[..]));
        // A different key misses even with an entry present.
        assert_eq!(s.get("k", 8), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn total_bytes_counts_framed_entries() {
        let dir = scratch("totals");
        let s = Store::open(&dir, None).unwrap();
        assert_eq!(s.total_bytes(), 0);
        s.put("k", 1, &[0u8; 100]);
        s.put("k", 2, &[0u8; 100]);
        assert_eq!(s.total_bytes(), 2 * (HEADER_LEN as u64 + 100));
        let _ = fs::remove_dir_all(&dir);
    }
}
